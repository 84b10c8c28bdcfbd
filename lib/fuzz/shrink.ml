(** Delta-debugging shrinkers for the three oracle input shapes.

    All three follow the same greedy first-improvement loop
    ({!minimize}): enumerate one-step reductions of the current failing
    input, re-run the oracle's failure predicate on each, and restart
    from the first reduction that still fails, until no reduction fails
    or the evaluation budget runs out. The failure predicate re-runs
    the {e whole} oracle pipeline (parse → typecheck → verify → execute
    for programs), so candidates that fall outside the well-formed
    input space — shrinking is type-blind — simply don't fail and are
    discarded; no shrink step can manufacture a spurious bug.

    Budgets are deterministic (a fixed count of predicate evaluations),
    so shrunk reproducers are identical run to run. *)

module Ast = Flux_syntax.Ast
open Flux_smt
open Flux_fixpoint

(** Greedy minimization: keep taking the first one-step reduction that
    still satisfies [fails], spending at most [budget] evaluations. The
    input must satisfy [fails] already. *)
let minimize ~(budget : int) (fails : 'a -> bool) (steps : 'a -> 'a list)
    (x : 'a) : 'a =
  let budget = ref budget in
  let rec go x =
    let rec try_steps = function
      | [] -> x
      | c :: rest ->
          if !budget <= 0 then x
          else begin
            decr budget;
            if fails c then go c else try_steps rest
          end
    in
    try_steps (steps x)
  in
  go x

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let mk = Ast.mk_expr

(** One-step reductions of an expression: replace it by a subexpression
    or a small literal. Type-blind; the failure predicate filters. *)
let rec shrink_expr (e : Ast.expr) : Ast.expr list =
  let sub = function
    | [] -> []
    | xs -> xs
  in
  let children =
    match e.Ast.e with
    | Ast.EInt 0 | Ast.EBool _ | Ast.EUnit -> []
    | Ast.EInt n -> [ mk (Ast.EInt 0); mk (Ast.EInt (n / 2)) ]
    | Ast.EVar _ -> [ mk (Ast.EInt 0) ]
    | Ast.EBin (op, a, b) ->
        [ a; b ]
        @ List.map (fun a' -> mk (Ast.EBin (op, a', b))) (shrink_expr a)
        @ List.map (fun b' -> mk (Ast.EBin (op, a, b'))) (shrink_expr b)
    | Ast.EUn (op, a) ->
        (a :: List.map (fun a' -> mk (Ast.EUn (op, a'))) (shrink_expr a))
    | Ast.EMethod (r, m, args) ->
        List.map (fun r' -> mk (Ast.EMethod (r', m, args))) (shrink_expr r)
        @ List.concat
            (List.mapi
               (fun i a ->
                 List.map
                   (fun a' ->
                     mk
                       (Ast.EMethod
                          (r, m, List.mapi (fun j x -> if i = j then a' else x) args)))
                   (shrink_expr a))
               args)
    | Ast.ECall (f, args) ->
        List.concat
          (List.mapi
             (fun i a ->
               List.map
                 (fun a' ->
                   mk
                     (Ast.ECall
                        (f, List.mapi (fun j x -> if i = j then a' else x) args)))
                 (shrink_expr a))
             args)
    | Ast.EDeref a ->
        List.map (fun a' -> mk (Ast.EDeref a')) (shrink_expr a)
    | Ast.EIf (c, t, f) ->
        (match t.Ast.tail with Some e -> [ e ] | None -> [])
        @ (match f with
          | Some fb -> (
              mk (Ast.EIf (c, t, None))
              :: (match fb.Ast.tail with Some e -> [ e ] | None -> []))
          | None -> [])
        @ List.map (fun c' -> mk (Ast.EIf (c', t, f))) (shrink_expr c)
        @ List.map (fun t' -> mk (Ast.EIf (c, t', f))) (shrink_block t)
    | Ast.EBlock b ->
        (match (b.Ast.stmts, b.Ast.tail) with
        | [], Some e -> [ e ]
        | _ -> [])
        @ List.map (fun b' -> mk (Ast.EBlock b')) (shrink_block b)
    | _ -> []
  in
  sub children

(** One-step reductions of a block: drop a statement, shrink a
    statement in place, or shrink the tail. *)
and shrink_block (b : Ast.block) : Ast.block list =
  let drop =
    List.mapi
      (fun i _ ->
        {
          b with
          Ast.stmts = List.filteri (fun j _ -> j <> i) b.Ast.stmts;
        })
      b.Ast.stmts
  in
  let inplace =
    List.concat
      (List.mapi
         (fun i s ->
           List.map
             (fun s' ->
               {
                 b with
                 Ast.stmts = List.mapi (fun j x -> if i = j then s' else x) b.Ast.stmts;
               })
             (shrink_stmt s))
         b.Ast.stmts)
  in
  let tail =
    match b.Ast.tail with
    | None -> []
    | Some e ->
        List.map (fun e' -> { b with Ast.tail = Some e' }) (shrink_expr e)
  in
  drop @ tail @ inplace

and shrink_stmt (s : Ast.stmt) : Ast.stmt list =
  match s with
  | Ast.SLet { lname; lmut; lty; linit; lspan } ->
      List.map
        (fun e -> Ast.SLet { lname; lmut; lty; linit = e; lspan })
        (shrink_expr linit)
  | Ast.SAssign (p, op, e, sp) ->
      List.map (fun e' -> Ast.SAssign (p, op, e', sp)) (shrink_expr e)
  | Ast.SExpr e -> List.map (fun e' -> Ast.SExpr e') (shrink_expr e)
  | Ast.SWhile (c, b, sp) ->
      (* unroll once (preserves most faults) or shrink condition/body *)
      Ast.SExpr (mk (Ast.EBlock b))
      :: List.map (fun b' -> Ast.SWhile (c, b', sp)) (shrink_block b)
      @ List.map (fun c' -> Ast.SWhile (c', b, sp)) (shrink_expr c)
  | Ast.SInvariant _ | Ast.SBreak _ -> []
  | Ast.SReturn (Some e, sp) ->
      List.map (fun e' -> Ast.SReturn (Some e', sp)) (shrink_expr e)
  | Ast.SReturn (None, _) -> []

let shrink_fn_spec (fs : Ast.fn_spec) : Ast.fn_spec list =
  List.mapi
    (fun i _ ->
      {
        fs with
        Ast.fs_requires = List.filteri (fun j _ -> j <> i) fs.Ast.fs_requires;
      })
    fs.Ast.fs_requires
  @
  match fs.Ast.fs_ret with
  | Ast.RBase (b, _ :: _) -> [ { fs with Ast.fs_ret = Ast.RBase (b, []) } ]
  | Ast.RExists (_, b, _) -> [ { fs with Ast.fs_ret = Ast.RBase (b, []) } ]
  | _ -> []

let shrink_fn (fd : Ast.fn_def) : Ast.fn_def list =
  (match fd.Ast.fn_sig with
  | Some fs -> List.map (fun fs' -> { fd with Ast.fn_sig = Some fs' }) (shrink_fn_spec fs)
  | None -> [])
  @ (match fd.Ast.fn_body with
    | Some b -> List.map (fun b' -> { fd with Ast.fn_body = Some b' }) (shrink_block b)
    | None -> [])
  @ List.mapi
      (fun i _ ->
        {
          fd with
          Ast.fn_contract =
            {
              fd.Ast.fn_contract with
              Ast.c_requires =
                List.filteri (fun j _ -> j <> i) fd.Ast.fn_contract.Ast.c_requires;
            };
        })
      fd.Ast.fn_contract.Ast.c_requires

let shrink_program (p : Ast.program) : Ast.program list =
  List.concat
    (List.mapi
       (fun i item ->
         match item with
         | Ast.IFn fd ->
             List.map
               (fun fd' ->
                 List.mapi (fun j x -> if i = j then Ast.IFn fd' else x) p)
               (shrink_fn fd)
         | Ast.IStruct _ -> [])
       p)

(** Minimize a failing program. [fails] receives rendered source (the
    same artifact written to the corpus), so shrinking exercises the
    same frontend path the oracle does. *)
let minimize_program ~(budget : int) (fails : string -> bool)
    (p : Ast.program) : string =
  let fails_ast p' =
    match Ast.program_to_source p' with
    | src -> ( match Flux_syntax.Parser.parse_program src with
      | p'' ->
          (* source-stability: only accept candidates that survive the
             round trip, so the written reproducer is what we tested *)
          ignore p'';
          fails src
      | exception _ -> false)
    | exception _ -> false
  in
  let reduced = minimize ~budget fails_ast shrink_program p in
  Ast.program_to_source reduced

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let same_sort a b =
  match (Term.sort_of a, Term.sort_of b) with
  | sa, sb -> Sort.equal sa sb
  | exception Term.Ill_sorted _ -> false

(** One-step reductions of a term, preserving sort and the
    nonzero-constant-divisor invariant. *)
let rec shrink_term (t : Term.t) : Term.t list =
  let rebuild1 mk a = List.map mk (shrink_term a) in
  let raw =
    match Term.view t with
    | Term.Int 0 | Term.Bool _ -> []
    | Term.Int n -> [ Term.int 0; Term.int (n / 2) ]
    | Term.Var (_, Sort.Int) -> [ Term.int 0 ]
    | Term.Var (_, Sort.Bool) -> [ Term.bool true; Term.bool false ]
    | Term.Var _ -> []
    | Term.Binop (op, a, b) ->
        let keep_divisor b' =
          match (op, Term.view b') with
          | (Term.Div | Term.Mod), Term.Int 0 -> false
          | _ -> true
        in
        [ a; b ]
        @ rebuild1 (fun a' -> Term.mk_binop op a' b) a
        @ List.filter_map
            (fun b' ->
              if keep_divisor b' then Some (Term.mk_binop op a b') else None)
            (shrink_term b)
    | Term.Neg a -> a :: rebuild1 Term.neg a
    | Term.Cmp (op, a, b) ->
        Term.bool true :: Term.bool false
        :: rebuild1 (fun a' -> Term.mk_cmp op a' b) a
        @ rebuild1 (fun b' -> Term.mk_cmp op a b') b
    | Term.Eq (a, b) ->
        Term.bool true :: Term.bool false
        :: rebuild1 (fun a' -> Term.mk_eq a' b) a
        @ rebuild1 (fun b' -> Term.mk_eq a b') b
    | Term.Ne (a, b) ->
        Term.bool true :: Term.bool false
        :: rebuild1 (fun a' -> Term.mk_ne a' b) a
        @ rebuild1 (fun b' -> Term.mk_ne a b') b
    | Term.And ts ->
        ts
        @ List.mapi
            (fun i _ -> Term.mk_and (List.filteri (fun j _ -> j <> i) ts))
            ts
        @ List.concat
            (List.mapi
               (fun i x ->
                 List.map
                   (fun x' ->
                     Term.mk_and (List.mapi (fun j y -> if i = j then x' else y) ts))
                   (shrink_term x))
               ts)
    | Term.Or ts ->
        ts
        @ List.mapi
            (fun i _ -> Term.mk_or (List.filteri (fun j _ -> j <> i) ts))
            ts
        @ List.concat
            (List.mapi
               (fun i x ->
                 List.map
                   (fun x' ->
                     Term.mk_or (List.mapi (fun j y -> if i = j then x' else y) ts))
                   (shrink_term x))
               ts)
    | Term.Not a -> a :: rebuild1 Term.mk_not a
    | Term.Imp (a, b) ->
        [ b; Term.mk_not a ]
        @ rebuild1 (fun a' -> Term.mk_imp a' b) a
        @ rebuild1 (fun b' -> Term.mk_imp a b') b
    | Term.Iff (a, b) ->
        [ a; b ]
        @ rebuild1 (fun a' -> Term.mk_iff a' b) a
        @ rebuild1 (fun b' -> Term.mk_iff a b') b
    | Term.Ite (c, a, b) ->
        [ a; b ]
        @ rebuild1 (fun c' -> Term.ite c' a b) c
        @ rebuild1 (fun a' -> Term.ite c a' b) a
        @ rebuild1 (fun b' -> Term.ite c a b') b
    | Term.Real _ | Term.App _ -> []
  in
  List.filter (same_sort t) raw

let minimize_term ~(budget : int) (fails : Term.t -> bool) (t : Term.t) :
    Term.t =
  minimize ~budget fails shrink_term t

(* ------------------------------------------------------------------ *)
(* Horn clause systems                                                 *)
(* ------------------------------------------------------------------ *)

(** One-step reductions of a clause set: drop a clause, drop a
    hypothesis, or shrink a concrete predicate. κ declarations are left
    alone — unused κs are harmless. *)
let shrink_clauses (clauses : Horn.clause list) : Horn.clause list list =
  let drop =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) clauses) clauses
  in
  let in_clause =
    List.concat
      (List.mapi
         (fun i (cl : Horn.clause) ->
           let drop_hyp =
             List.mapi
               (fun h _ ->
                 { cl with Horn.hyps = List.filteri (fun j _ -> j <> h) cl.Horn.hyps })
               cl.Horn.hyps
           in
           let shrink_conc =
             List.concat
               (List.mapi
                  (fun h p ->
                    match p with
                    | Horn.Conc t ->
                        List.map
                          (fun t' ->
                            {
                              cl with
                              Horn.hyps =
                                List.mapi
                                  (fun j q -> if h = j then Horn.Conc t' else q)
                                  cl.Horn.hyps;
                            })
                          (shrink_term t)
                    | Horn.Kapp _ -> [])
                  cl.Horn.hyps)
           in
           let shrink_head =
             match cl.Horn.head with
             | Horn.Conc t ->
                 List.map (fun t' -> { cl with Horn.head = Horn.Conc t' }) (shrink_term t)
             | Horn.Kapp _ -> []
           in
           List.map
             (fun cl' -> List.mapi (fun j c -> if i = j then cl' else c) clauses)
             (drop_hyp @ shrink_conc @ shrink_head))
         clauses)
  in
  drop @ in_clause

let minimize_clauses ~(budget : int) (fails : Horn.clause list -> bool)
    (clauses : Horn.clause list) : Horn.clause list =
  minimize ~budget fails shrink_clauses clauses
