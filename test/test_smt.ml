(** Unit and property tests for the SMT substrate. *)

open Flux_smt

let v = Term.var
let x = v "x"
let y = v "y"
let z = v "z"
let n = v "n"

let check_valid name expected t =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected (Solver.valid t))

let check_sat name expected t =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected (Solver.sat t))

let unit_tests =
  [
    (* propositional *)
    check_valid "excluded middle" true Term.(mk_or [ le x y; gt x y ]);
    check_valid "contradiction invalid" false Term.(mk_and [ le x y; gt x y ]);
    check_sat "simple sat" true Term.(lt x y);
    check_sat "x<y && y<x unsat" false Term.(mk_and [ lt x y; lt y x ]);
    (* transitivity *)
    check_valid "lt-le transitivity" true
      Term.(mk_imp (mk_and [ lt x y; le y n ]) (lt x n));
    check_valid "not symmetric" false Term.(mk_imp (lt x y) (lt y x));
    (* integer tightening *)
    check_valid "0<x<2 => x=1" true
      Term.(mk_imp (mk_and [ lt (int 0) x; lt x (int 2) ]) (eq x (int 1)));
    check_valid "strict to nonstrict" true
      Term.(mk_imp (lt x y) (le (add x (int 1)) y));
    check_sat "no integer between" false
      Term.(mk_and [ lt (int 0) x; lt x (int 1) ]);
    (* equalities and disequalities *)
    check_valid "eq substitution" true
      Term.(mk_imp (mk_and [ eq x y; lt y z ]) (lt x z));
    check_valid "diseq split" true
      Term.(mk_imp (mk_and [ ne x y; ge x y ]) (gt x y));
    check_sat "x!=x unsat" false Term.(ne x x);
    (* division linearization *)
    check_valid "midpoint lower" true
      Term.(
        mk_imp
          (mk_and [ le x y; le (int 0) x ])
          (le x (add x (div (sub y x) (int 2)))));
    check_valid "midpoint strict upper" true
      Term.(
        mk_imp
          (mk_and [ lt x y; le (int 0) x ])
          (lt (add x (div (sub y x) (int 2))) y));
    check_valid "halving positive" true
      Term.(mk_imp (ge x (int 0)) (ge (div x (int 2)) (int 0)));
    check_valid "div by 2 bound" true
      Term.(mk_imp (gt x (int 0)) (lt (div x (int 2)) x));
    (* modulo *)
    check_valid "mod range" true
      Term.(
        mk_imp (ge x (int 0))
          (mk_and [ le (int 0) (md x (int 3)); lt (md x (int 3)) (int 3) ]));
    (* truncated (Rust/OCaml) div/mod on negative dividends: the
       quotient rounds toward zero, the remainder takes the dividend's
       sign. The old Euclidean encoding proved (-7)/2 = -4, which the
       interpreter falsifies. *)
    check_valid "(-7)/2 = -3 (truncated)" true
      Term.(eq (div (int (-7)) (int 2)) (int (-3)));
    check_valid "(-7) mod 2 = -1 (truncated)" true
      Term.(eq (md (int (-7)) (int 2)) (int (-1)));
    check_sat "(-7)/2 = -4 (Euclidean) unsat" false
      Term.(eq (div (int (-7)) (int 2)) (int (-4)));
    check_sat "(-7) mod 2 = 1 (Euclidean) unsat" false
      Term.(eq (md (int (-7)) (int 2)) (int 1));
    check_valid "mod sign follows dividend" true
      Term.(mk_imp (le x (int 0)) (le (md x (int 3)) (int 0)));
    check_valid "mod nonneg needs nonneg dividend" false
      Term.(ge (md x (int 2)) (int 0));
    check_valid "truncated div rounds toward zero" true
      Term.(mk_imp (le x (int 0)) (ge (mul (int 2) (div x (int 2))) x));
    (* booleans *)
    check_valid "bool hypothesis" true
      Term.(mk_imp (mk_and [ bvar "b"; mk_imp (bvar "b") (lt x y) ]) (le x y));
    check_valid "iff reasoning" true
      Term.(mk_imp (mk_and [ mk_iff (bvar "b") (lt x y); bvar "b" ]) (lt x y));
    (* uninterpreted functions: Ackermann congruence *)
    check_valid "congruence" true
      Term.(mk_imp (eq x y) (eq (app "f" [ x ]) (app "f" [ y ])));
    check_valid "no spurious congruence" false
      Term.(eq (app "f" [ x ]) (app "f" [ y ]));
    check_valid "congruence 2-ary" true
      Term.(
        mk_imp
          (mk_and [ eq x y; eq z n ])
          (eq (app "g" [ x; z ]) (app "g" [ y; n ])));
    (* nonlinear abstraction is sound: x*y = x*y *)
    check_valid "nonlinear reflexivity" true Term.(eq (mul x y) (mul x y));
    check_valid "nonlinear unknown" false Term.(ge (mul x x) (int 0));
    (* constant times variable stays linear *)
    check_valid "2x <= 2y from x<=y" true
      Term.(mk_imp (le x y) (le (mul (int 2) x) (mul (int 2) y)));
    (* floats are opaque but consistent *)
    check_valid "float branch consistency" true
      Term.(
        mk_imp
          (mk_and [ Term.make (Cmp (Lt, real 1.0, v ~sort:Sort.Real "f")); lt x y ])
          (lt x y));
    (* ite lifting: z = min(x,y) implies z <= x *)
    check_valid "ite" true
      Term.(mk_imp (eq z (ite (lt x y) x y)) (mk_and [ le z x; le z y ]));
    (* entailment interface *)
    Alcotest.test_case "entails" `Quick (fun () ->
        Alcotest.(check bool) "yes" true
          (Solver.entails Term.[ le x y; le y z ] Term.(le x z));
        Alcotest.(check bool)
          "sliced" true
          (Solver.entails_sliced
             Term.[ le x y; le y z; lt n (int 0) ]
             Term.(le x z)));
    (* hash-consing: structurally equal smart-constructed terms are
       physically equal, and free_vars memoization agrees with a fresh
       computation *)
    Alcotest.test_case "hash-consing" `Quick (fun () ->
        let t1 = Term.(mk_and [ le x y; eq (add x (int 1)) z ]) in
        let t2 = Term.(mk_and [ le x y; eq (add x (int 1)) z ]) in
        Alcotest.(check bool) "interned phys-eq" true (t1 == t2);
        Alcotest.(check bool) "structural equal agrees" true (Term.equal t1 t2);
        Alcotest.(check bool)
          "hash agrees" true
          (Term.hash t1 = Term.hash t2);
        let fvs = Term.free_vars t1 in
        Alcotest.(check (list string))
          "free vars" [ "x"; "y"; "z" ]
          (Term.VarSet.elements fvs);
        (* memoized result is stable across calls *)
        Alcotest.(check bool)
          "memo stable" true
          (Term.VarSet.equal fvs (Term.free_vars t2)));
  ]

(* ------------------------------------------------------------------ *)
(* Property tests: agreement with brute-force evaluation               *)
(* ------------------------------------------------------------------ *)

let gen_term : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ x; y; z ] in
  let atomg =
    let* a = var in
    let* b = var in
    let* c = int_range (-3) 3 in
    let lhs = Term.add a (Term.int c) in
    oneofl
      [ Term.lt lhs b; Term.le lhs b; Term.eq lhs b; Term.ne lhs b; Term.ge lhs b ]
  in
  fix
    (fun self depth ->
      if depth = 0 then atomg
      else
        frequency
          [
            (3, atomg);
            ( 2,
              map2
                (fun a b -> Term.mk_and [ a; b ])
                (self (depth - 1)) (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Term.mk_or [ a; b ])
                (self (depth - 1)) (self (depth - 1)) );
            (1, map Term.mk_not (self (depth - 1)));
            (1, map2 Term.mk_imp (self (depth - 1)) (self (depth - 1)));
          ])
    3

let rec eval_term (env : (string * int) list) (t : Term.t) : int =
  match Term.view t with
  | Term.Var (s, _) -> List.assoc s env
  | Term.Int k -> k
  | Term.Binop (Term.Add, a, b) -> eval_term env a + eval_term env b
  | Term.Binop (Term.Sub, a, b) -> eval_term env a - eval_term env b
  | Term.Binop (Term.Mul, a, b) -> eval_term env a * eval_term env b
  | Term.Neg a -> -eval_term env a
  | _ -> failwith "eval_term"

let rec eval_pred (env : (string * int) list) (t : Term.t) : bool =
  match Term.view t with
  | Term.Bool b -> b
  | Term.Cmp (op, a, b) -> (
      let a = eval_term env a and b = eval_term env b in
      match op with
      | Term.Lt -> a < b
      | Term.Le -> a <= b
      | Term.Gt -> a > b
      | Term.Ge -> a >= b)
  | Term.Eq (a, b) -> eval_term env a = eval_term env b
  | Term.Ne (a, b) -> eval_term env a <> eval_term env b
  | Term.And ts -> List.for_all (eval_pred env) ts
  | Term.Or ts -> List.exists (eval_pred env) ts
  | Term.Not a -> not (eval_pred env a)
  | Term.Imp (a, b) -> (not (eval_pred env a)) || eval_pred env b
  | Term.Iff (a, b) -> eval_pred env a = eval_pred env b
  | _ -> failwith "eval_pred"

let cube =
  let range = [ -2; -1; 0; 1; 2; 3 ] in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun c -> [ ("x", a); ("y", b); ("z", c) ]) range)
        range)
    range

let prop_validity_sound =
  QCheck.Test.make ~name:"valid formulas have no small counterexample"
    ~count:300 (QCheck.make gen_term) (fun t ->
      if Solver.valid t then List.for_all (fun env -> eval_pred env t) cube
      else true)

let prop_unsat_sound =
  QCheck.Test.make ~name:"unsat formulas have no small model" ~count:300
    (QCheck.make gen_term) (fun t ->
      if not (Solver.sat t) then
        List.for_all (fun env -> not (eval_pred env t)) cube
      else true)

let prop_negation =
  QCheck.Test.make ~name:"valid t implies unsat (not t)" ~count:200
    (QCheck.make gen_term) (fun t ->
      if Solver.valid t then not (Solver.sat (Term.mk_not t)) else true)

let prop_subst_ground =
  QCheck.Test.make ~name:"ground substitution agrees with evaluation"
    ~count:300 (QCheck.make gen_term) (fun t ->
      let env = [ ("x", 1); ("y", -2); ("z", 3) ] in
      let m = List.map (fun (s, k) -> (s, Term.int k)) env in
      match Term.subst m t with
      | { node = Term.Bool b; _ } -> b = eval_pred env t
      | t' -> Solver.valid t' = eval_pred env t)

(* Exhaustive differential check of the solver's ground / and %
   against OCaml's truncated-toward-zero semantics (Rust's), over the
   full box [-8,8] x [-8,8] \ {b = 0}: both the claimed quotient and
   every wrong candidate in the box get a definite verdict. Guards the
   Euclidean-encoding regression at the solver layer. *)
let divmod_exhaustive () =
  for a = -8 to 8 do
    for b = -8 to 8 do
      if b <> 0 then begin
        let ta = Term.int a and tb = Term.int b in
        Alcotest.(check bool)
          (Printf.sprintf "%d / %d = %d is valid" a b (a / b))
          true
          (Solver.valid (Term.eq (Term.div ta tb) (Term.int (a / b))));
        Alcotest.(check bool)
          (Printf.sprintf "%d mod %d = %d is valid" a b (a mod b))
          true
          (Solver.valid (Term.eq (Term.md ta tb) (Term.int (a mod b))));
        (* and the Euclidean (always non-negative) remainder, where it
           differs, is definitely refuted *)
        let eucl = ((a mod b) + abs b) mod abs b in
        if eucl <> a mod b then
          Alcotest.(check bool)
            (Printf.sprintf "%d mod %d is not the Euclidean %d" a b eucl)
            false
            (Solver.sat (Term.eq (Term.md ta tb) (Term.int eucl)))
      end
    done
  done

(** Fixed seed for the randomized properties: reproduce a failure by
    re-running with the same constant. *)
let qcheck_seed = 0x5eed2

let tests =
  ( "smt",
    unit_tests
    @ [ Alcotest.test_case "exhaustive div/mod vs truncated semantics" `Quick
          divmod_exhaustive ]
    @ List.map
        (QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| qcheck_seed |]))
        [ prop_validity_sound; prop_unsat_sound; prop_negation; prop_subst_ground ]
  )
