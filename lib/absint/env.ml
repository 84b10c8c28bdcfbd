(** Term-level abstract environment for pre-solver discharge.

    Holds the {e linear} consequences of a clause's hypotheses as a
    difference-bound matrix over the hypothesis variables plus a
    virtual zero node: entry [(i, j) ↦ c] asserts [vᵢ − vⱼ ≤ c], and
    edges to/from the zero node encode unary bounds ([x ≤ c],
    [−x ≤ c]). The matrix is closed by Floyd–Warshall, so every query
    is an O(1) table lookup plus endpoint arithmetic.

    Deliberately weaker than {!Dom}: no congruence component and no
    div/mod evaluation. Everything this environment can prove is a
    positive-combination (Fourier–Motzkin) consequence of the
    hypotheses after the same strict→non-strict and gcd normalization
    the solver applies to its input constraints — so a clause
    discharged here is one the solver would also prove, which is what
    keeps [--absint] verdicts byte-identical to [--no-absint] and lets
    [--absint-crosscheck] re-solve every discharged clause without
    disagreement. Anything outside that fragment (nonlinear atoms,
    div/mod, disjunctive hypotheses) simply contributes nothing and the
    clause falls through to SMT. *)

open Flux_smt
module SMap = Lia.SMap

(* Saturating weight arithmetic: [None] is +∞. Weights derived from
   term constants fit comfortably; sums of two stay far from
   wrap-around after clamping. *)
let big = 1 lsl 60
let clamp c = if c >= big then None else Some (max (-big) c)
let w_add a b = match (a, b) with Some a, Some b -> clamp (a + b) | _ -> None
let w_min a b = match (a, b) with Some a, Some b -> Some (min a b) | None, w | w, None -> w
let w_le a b = match (a, b) with Some a, Some b -> a <= b | _, None -> true | None, _ -> false

type t = {
  bot : bool;  (** hypotheses are contradictory: everything is entailed *)
  idx : int SMap.t;  (** variable → matrix index; index 0 is the zero node *)
  m : int option array array;  (** closed DBM *)
}

let top = { bot = false; idx = SMap.empty; m = [| [| Some 0 |] |] }
let bot = { top with bot = true }
let is_bot (e : t) = e.bot

(* ------------------------------------------------------------------ *)
(* Linearization                                                       *)
(* ------------------------------------------------------------------ *)

exception Nonlinear

let rec lin_of_term (t : Term.t) : Lia.lin =
  match Term.view t with
  | Term.Int n -> Lia.lin_const n
  | Term.Var (x, s) when Sort.equal s Sort.Int -> Lia.lin_var x
  | Term.Neg a -> Lia.lin_scale (-1) (lin_of_term a)
  | Term.Binop (Term.Add, a, b) -> Lia.lin_add (lin_of_term a) (lin_of_term b)
  | Term.Binop (Term.Sub, a, b) -> Lia.lin_sub (lin_of_term a) (lin_of_term b)
  | Term.Binop (Term.Mul, { node = Term.Int k; _ }, a)
  | Term.Binop (Term.Mul, a, { node = Term.Int k; _ })
    ->
      Lia.lin_scale k (lin_of_term a)
  | _ -> raise Nonlinear

(* ------------------------------------------------------------------ *)
(* Constraint collection                                               *)
(* ------------------------------------------------------------------ *)

(* An atomic fact [lin ≤ 0]. Equalities contribute one in each
   direction; strict inequalities are tightened by 1 up front, exactly
   as the solver's normalization does. *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(* gcd-normalize [lin ≤ 0] the same way the solver normalizes its input
   constraints (divide by the coefficient gcd, floor the constant).
   Applied only to original hypothesis atoms — everything derived
   afterwards stays at unit coefficients, inside rational FM's power. *)
let tighten (l : Lia.lin) : Lia.lin =
  let g = SMap.fold (fun _ c acc -> gcd c acc) l.Lia.coeffs 0 in
  if g <= 1 then l
  else
    {
      Lia.coeffs = SMap.map (fun c -> c / g) l.Lia.coeffs;
      const = fdiv l.Lia.const g;
    }

exception Contradiction

(** Accumulate the ≤-atoms of a hypothesis term. Only conjunctive
    structure is mined; disjunctions and boolean atoms are skipped
    (sound: skipping a hypothesis only weakens the environment). *)
let rec collect (acc : Lia.lin list) (t : Term.t) : Lia.lin list =
  match Term.view t with
  | Term.Bool true -> acc
  | Term.Bool false -> raise Contradiction
  | Term.And ts -> List.fold_left collect acc ts
  | Term.Not inner -> (
      let t' = Term.mk_not inner in
      match Term.view t' with
      | Term.Not _ -> acc (* no usable normal form *)
      | _ -> collect acc t')
  | Term.Cmp (op, a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        let atom =
          match op with
          | Term.Le -> d (* a − b ≤ 0 *)
          | Term.Lt -> Lia.lin_add d (Lia.lin_const 1) (* a − b + 1 ≤ 0 *)
          | Term.Ge -> Lia.lin_scale (-1) d
          | Term.Gt -> Lia.lin_add (Lia.lin_scale (-1) d) (Lia.lin_const 1)
        in
        tighten atom :: acc
      with Nonlinear -> acc)
  | Term.Eq (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        tighten d :: tighten (Lia.lin_scale (-1) d) :: acc
      with Nonlinear -> acc)
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Building and closing the DBM                                        *)
(* ------------------------------------------------------------------ *)

(* Install [lin ≤ 0] into the matrix when it fits the DBM fragment:
   at most two variables with coefficients {+1}, {−1} or {+1, −1}. *)
let install idx m (l : Lia.lin) =
  let bindings = SMap.bindings l.Lia.coeffs in
  let edge i j c = m.(i).(j) <- w_min m.(i).(j) (Some c) in
  match bindings with
  | [] -> if l.Lia.const > 0 then raise Contradiction
  | [ (x, 1) ] -> edge (SMap.find x idx) 0 (-l.Lia.const) (* x ≤ −k *)
  | [ (x, -1) ] -> edge 0 (SMap.find x idx) (-l.Lia.const) (* −x ≤ −k *)
  | [ (x, 1); (y, -1) ] | [ (y, -1); (x, 1) ] ->
      edge (SMap.find x idx) (SMap.find y idx) (-l.Lia.const)
  | _ -> () (* outside the DBM fragment: drop (sound) *)

let close m =
  let n = Array.length m in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        m.(i).(j) <- w_min m.(i).(j) (w_add m.(i).(k) m.(k).(j))
      done
    done
  done;
  (* negative self-loop = contradictory hypotheses *)
  let neg = ref false in
  for i = 0 to n - 1 do
    match m.(i).(i) with Some c when c < 0 -> neg := true | _ -> ()
  done;
  !neg

let of_atoms (atoms : Lia.lin list) : t =
  let idx =
    List.fold_left
      (fun idx l ->
        SMap.fold
          (fun x _ idx ->
            if SMap.mem x idx then idx else SMap.add x (SMap.cardinal idx + 1) idx)
          l.Lia.coeffs idx)
      SMap.empty atoms
  in
  let n = SMap.cardinal idx + 1 in
  let m = Array.init n (fun i -> Array.init n (fun j -> if i = j then Some 0 else None)) in
  try
    List.iter (install idx m) atoms;
    if close m then bot else { bot = false; idx; m }
  with Contradiction -> bot

(** Build the environment from a clause's hypotheses. *)
let of_hyps (hyps : Term.t list) : t =
  try of_atoms (List.fold_left collect [] hyps) with Contradiction -> bot

(** Extend with one more hypothesis and re-close. Rebuilds from the raw
    matrix facts; environments are small (clause-local variables), so
    this stays cheap and is only taken on [Imp] goals. *)
let assume (e : t) (h : Term.t) : t =
  if e.bot then e
  else
    try
      let atoms = collect [] h in
      if atoms = [] then e
      else begin
        (* re-express the existing closed matrix as atoms and rebuild *)
        let existing = ref [] in
        let names = Array.make (Array.length e.m) "" in
        SMap.iter (fun x i -> names.(i) <- x) e.idx;
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j w ->
                match w with
                | Some c when i <> j ->
                    let l =
                      match (i, j) with
                      | 0, j ->
                          Lia.lin_add
                            (Lia.lin_scale (-1) (Lia.lin_var names.(j)))
                            (Lia.lin_const (-c))
                      | i, 0 ->
                          Lia.lin_add (Lia.lin_var names.(i))
                            (Lia.lin_const (-c))
                      | i, j ->
                          Lia.lin_add
                            (Lia.lin_sub (Lia.lin_var names.(i))
                               (Lia.lin_var names.(j)))
                            (Lia.lin_const (-c))
                    in
                    existing := l :: !existing
                | _ -> ())
              row)
          e.m;
        of_atoms (atoms @ !existing)
      end
    with Contradiction -> bot

(* ------------------------------------------------------------------ *)
(* Bounding linear forms                                               *)
(* ------------------------------------------------------------------ *)

(* Upper bound of a variable / its negation, as DBM edges. *)
let var_hi e x =
  match SMap.find_opt x e.idx with None -> None | Some i -> e.m.(i).(0)

let var_neg_hi e x =
  match SMap.find_opt x e.idx with None -> None | Some i -> e.m.(0).(i)

(** A sound upper bound of [lin] under the environment, or [None]. Uses
    the pairwise difference edge when the form is exactly [x − y + k];
    otherwise sums per-variable interval bounds. *)
let upper_bound (e : t) (l : Lia.lin) : int option =
  if e.bot then Some min_int
  else
    let bindings = SMap.bindings l.Lia.coeffs in
    let pairwise =
      match bindings with
      | [ (x, 1); (y, -1) ] | [ (y, -1); (x, 1) ] -> (
          match (SMap.find_opt x e.idx, SMap.find_opt y e.idx) with
          | Some i, Some j -> w_add e.m.(i).(j) (Some l.Lia.const)
          | _ -> None)
      | _ -> None
    in
    let interval =
      List.fold_left
        (fun acc (x, c) ->
          let term_bound =
            if c > 0 then
              match var_hi e x with Some h -> clamp (c * h) | None -> None
            else
              (* c < 0: c·x ≤ (−c)·(−x) ≤ (−c)·ub(−x) *)
              match var_neg_hi e x with
              | Some h -> clamp (-c * h)
              | None -> None
          in
          w_add acc term_bound)
        (Some l.Lia.const) bindings
    in
    w_min pairwise interval

let lower_bound (e : t) (l : Lia.lin) : int option =
  match upper_bound e (Lia.lin_scale (-1) l) with
  | Some b -> Some (-b)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Entailment                                                          *)
(* ------------------------------------------------------------------ *)

(** [entails e goal]: do the hypotheses definitely imply [goal]? A
    [false] answer means "unknown" — the clause falls through to the
    solver. Every [true] answer is a Fourier–Motzkin consequence of
    the collected hypotheses (see the module header). *)
let rec entails (e : t) (goal : Term.t) : bool =
  e.bot
  ||
  match Term.view goal with
  | Term.Bool b -> b
  | Term.And ts -> List.for_all (entails e) ts
  | Term.Or ts -> List.exists (entails e) ts
  | Term.Imp (a, b) -> entails (assume e a) b
  | Term.Ite (c, a, b) -> entails (assume e c) a && entails (assume e (Term.mk_not c)) b
  | Term.Not inner -> (
      let g = Term.mk_not inner in
      match Term.view g with Term.Not _ -> false | _ -> entails e g)
  | Term.Cmp (op, a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        match op with
        | Term.Le -> w_le (upper_bound e d) (Some 0)
        | Term.Lt -> w_le (upper_bound e d) (Some (-1))
        | Term.Ge -> w_le (upper_bound e (Lia.lin_scale (-1) d)) (Some 0)
        | Term.Gt -> w_le (upper_bound e (Lia.lin_scale (-1) d)) (Some (-1))
      with Nonlinear -> false)
  | Term.Eq (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        w_le (upper_bound e d) (Some 0)
        && w_le (upper_bound e (Lia.lin_scale (-1) d)) (Some 0)
      with Nonlinear -> false)
  | Term.Ne (a, b) -> (
      try
        let d = Lia.lin_sub (lin_of_term a) (lin_of_term b) in
        w_le (upper_bound e d) (Some (-1))
        || w_le (upper_bound e (Lia.lin_scale (-1) d)) (Some (-1))
      with Nonlinear -> false)
  | _ -> false
