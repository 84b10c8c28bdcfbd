(** Terms of the quantifier-free refinement logic.

    A single syntactic category covers both integer-sorted expressions
    and boolean-sorted predicates; [sort_of] recovers the sort. Smart
    constructors perform light simplification (constant folding,
    flattening of [And]/[Or], double-negation elimination) so that the
    constraints shipped to the solver and printed in error messages stay
    readable.

    Every term is {e hash-consed} (Filliâtre–Conchon, "Type-Safe
    Modular Hash-Consing", 2006): a node of any size is interned by the
    constructor that builds it ({!make} and the smart constructors) and
    carries its structural hash, computed once from its children's
    stored hashes, plus a unique tag. {!hash} reads a field, and
    {!equal} is pointer equality for two terms of the same intern table.
    Pattern matching goes through {!view}. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** truncated integer division (Rust/OCaml [/]) *)
  | Mod  (** truncated remainder: sign follows the dividend *)

type cmpop =
  | Lt
  | Le
  | Gt
  | Ge

module VarSet = Set.Make (String)

type t = {
  node : node;
  hkey : int;  (** structural hash, from the children's [hkey]s *)
  tag : int;
      (** unique per node: the intern table's stamp in the high bits,
          the node's serial number in that table below *)
  mutable fvs : VarSet.t option;  (** memoized {!free_vars} *)
}

and node =
  | Var of string * Sort.t
  | Int of int
  | Real of float
  | Bool of bool
  | Binop of binop * t * t
  | Neg of t
  | Cmp of cmpop * t * t
  | Eq of t * t
  | Ne of t * t
  | And of t list
  | Or of t list
  | Not of t
  | Imp of t * t
  | Iff of t * t
  | Ite of t * t * t
  | App of string * t list
      (** uninterpreted function application; result sort is [Int] by
          convention (sufficient for our use: opaque abstractions of
          nonlinear arithmetic and the WP baseline's array reads) *)

let view t = t.node
let hash t = t.hkey

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

(* Identity across tables. Each domain interns into its own table, and
   {!reset_intern} starts a new one, each under a fresh stamp. Within a
   table a node is created only when no structurally equal node is
   there, so two nodes of one table are equal exactly when they are the
   same pointer. Terms of different tables meet when an engine worker
   reads terms built elsewhere (solver preps, the global environment)
   or a term outlives a reset; they compare structurally, hash first,
   and their tags are never compared. *)
let stamp_shift = 32
let same_table a b = a.tag lsr stamp_shift = b.tag lsr stamp_shift

let rec equal a b =
  a == b || (a.hkey = b.hkey && (not (same_table a b)) && equal_node a.node b.node)

and equal_node n m =
  match (n, m) with
  | Var (x, s), Var (y, s') -> String.equal x y && Sort.equal s s'
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Bool x, Bool y -> x = y
  | Binop (o, a1, a2), Binop (o', b1, b2) -> o = o' && equal a1 b1 && equal a2 b2
  | Neg a, Neg b | Not a, Not b -> equal a b
  | Cmp (o, a1, a2), Cmp (o', b1, b2) -> o = o' && equal a1 b1 && equal a2 b2
  | Eq (a1, a2), Eq (b1, b2)
  | Ne (a1, a2), Ne (b1, b2)
  | Imp (a1, a2), Imp (b1, b2)
  | Iff (a1, a2), Iff (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | And xs, And ys | Or xs, Or ys -> equal_list xs ys
  | Ite (a1, a2, a3), Ite (b1, b2, b3) -> equal a1 b1 && equal a2 b2 && equal a3 b3
  | App (f, xs), App (g, ys) -> String.equal f g && equal_list xs ys
  | _ -> false

and equal_list xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal x y && equal_list xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

let hash_combine h1 h2 = (h1 * 0x01000193) lxor h2

let hash_node = function
  | Var (x, s) -> hash_combine 1 (hash_combine (Hashtbl.hash x) (Hashtbl.hash s))
  | Int n -> hash_combine 2 (Hashtbl.hash n)
  | Real x -> hash_combine 3 (Hashtbl.hash x)
  | Bool b -> hash_combine 4 (Bool.to_int b)
  | Binop (op, a, b) ->
      hash_combine 5 (hash_combine (Hashtbl.hash op) (hash_combine a.hkey b.hkey))
  | Neg a -> hash_combine 6 a.hkey
  | Cmp (op, a, b) ->
      hash_combine 7 (hash_combine (Hashtbl.hash op) (hash_combine a.hkey b.hkey))
  | Eq (a, b) -> hash_combine 8 (hash_combine a.hkey b.hkey)
  | Ne (a, b) -> hash_combine 9 (hash_combine a.hkey b.hkey)
  | And ts -> List.fold_left (fun h t -> hash_combine h t.hkey) 10 ts
  | Or ts -> List.fold_left (fun h t -> hash_combine h t.hkey) 11 ts
  | Not a -> hash_combine 12 a.hkey
  | Imp (a, b) -> hash_combine 13 (hash_combine a.hkey b.hkey)
  | Iff (a, b) -> hash_combine 14 (hash_combine a.hkey b.hkey)
  | Ite (a, b, c) -> hash_combine 15 (hash_combine a.hkey (hash_combine b.hkey c.hkey))
  | App (f, ts) ->
      let h = hash_combine 16 (Hashtbl.hash f) in
      List.fold_left (fun h t -> hash_combine h t.hkey) h ts

(* The intern table: buckets chained by [hkey], domain-local so
   parallel checks never contend on (or race) a shared table. It is
   strong, and bounded by resets: the engine resets it at every task
   and the daemon at every request, so it holds the terms of one
   function's check or slice at most. *)
type table = { mutable buckets : t list array; mutable count : int; mutable stamp : int }

let next_stamp = Atomic.make 0
let initial_buckets = 1024

let fresh_table st =
  st.buckets <- Array.make initial_buckets [];
  st.count <- 0;
  st.stamp <- Atomic.fetch_and_add next_stamp 1

let table_dls : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let st = { buckets = [||]; count = 0; stamp = 0 } in
      fresh_table st;
      st)

let grow st =
  let old = st.buckets in
  let mask = (2 * Array.length old) - 1 in
  let buckets = Array.make (mask + 1) [] in
  Array.iter
    (List.iter (fun t ->
         let i = t.hkey land mask in
         buckets.(i) <- t :: buckets.(i)))
    old;
  st.buckets <- buckets

(** Intern a node as is (no simplification): the table's node when
    one is structurally equal, else a new node. *)
let make (node : node) : t =
  let st = Domain.DLS.get table_dls in
  let hkey = hash_node node in
  let i = hkey land (Array.length st.buckets - 1) in
  let rec find = function
    | u :: rest -> if u.hkey = hkey && equal_node u.node node then u else find rest
    | [] ->
        let tag = (st.stamp lsl stamp_shift) lor st.count in
        let t = { node; hkey; tag; fvs = None } in
        st.buckets.(i) <- t :: st.buckets.(i);
        st.count <- st.count + 1;
        if st.count > 2 * Array.length st.buckets then grow st;
        t
  in
  find st.buckets.(i)

(** Intern a term that no constructor of this process built — one read
    back by [Marshal] — into this domain's table. *)
let rec import t =
  make
    (match t.node with
    | (Var _ | Int _ | Real _ | Bool _) as n -> n
    | Binop (op, a, b) -> Binop (op, import a, import b)
    | Neg a -> Neg (import a)
    | Cmp (op, a, b) -> Cmp (op, import a, import b)
    | Eq (a, b) -> Eq (import a, import b)
    | Ne (a, b) -> Ne (import a, import b)
    | And ts -> And (List.map import ts)
    | Or ts -> Or (List.map import ts)
    | Not a -> Not (import a)
    | Imp (a, b) -> Imp (import a, import b)
    | Iff (a, b) -> Iff (import a, import b)
    | Ite (a, b, c) -> Ite (import a, import b, import c)
    | App (f, ts) -> App (f, List.map import ts))

(** Start a new, empty intern table on this domain. Terms built before
    stay valid and keep their identity: they compare and hash exactly
    like their twins built afterwards. *)
let reset_intern () = fresh_table (Domain.DLS.get table_dls)

(** Hash tables keyed by terms: O(1) hash, pointer equality within a
    table. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let tt = make (Bool true)
let ff = make (Bool false)
let bool b = if b then tt else ff
let int n = make (Int n)
let real x = make (Real x)
let var ?(sort = Sort.Int) name = make (Var (name, sort))
let bvar name = make (Var (name, Sort.Bool))

let rec mk_not t =
  match t.node with
  | Bool b -> bool (not b)
  | Not t' -> t'
  | Cmp (Lt, a, b) -> make (Cmp (Ge, a, b))
  | Cmp (Le, a, b) -> make (Cmp (Gt, a, b))
  | Cmp (Gt, a, b) -> make (Cmp (Le, a, b))
  | Cmp (Ge, a, b) -> make (Cmp (Lt, a, b))
  | Eq (a, b) -> make (Ne (a, b))
  | Ne (a, b) -> make (Eq (a, b))
  | And ts -> make (Or (List.map mk_not ts))
  | Or ts -> make (And (List.map mk_not ts))
  | _ -> make (Not t)

let mk_and ts =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | { node = Bool true; _ } :: rest -> flatten acc rest
    | { node = Bool false; _ } :: _ -> None
    | { node = And sub; _ } :: rest -> flatten acc (sub @ rest)
    | t :: rest -> flatten (t :: acc) rest
  in
  match flatten [] ts with
  | None -> ff
  | Some [] -> tt
  | Some [ t ] -> t
  | Some ts -> make (And ts)

let mk_or ts =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | { node = Bool false; _ } :: rest -> flatten acc rest
    | { node = Bool true; _ } :: _ -> None
    | { node = Or sub; _ } :: rest -> flatten acc (sub @ rest)
    | t :: rest -> flatten (t :: acc) rest
  in
  match flatten [] ts with
  | None -> tt
  | Some [] -> ff
  | Some [ t ] -> t
  | Some ts -> make (Or ts)

let mk_imp a b =
  match (a.node, b.node) with
  | Bool true, _ -> b
  | Bool false, _ -> tt
  | _, Bool true -> tt
  | _, Bool false -> mk_not a
  | _ -> make (Imp (a, b))

let mk_iff a b =
  match (a.node, b.node) with
  | Bool true, _ -> b
  | _, Bool true -> a
  | Bool false, _ -> mk_not b
  | _, Bool false -> mk_not a
  | _ -> make (Iff (a, b))

let rec mk_binop op a b =
  match (op, a.node, b.node) with
  | Add, Int x, Int y -> int (x + y)
  | Sub, Int x, Int y -> int (x - y)
  | Mul, Int x, Int y -> int (x * y)
  (* ground / and % fold with truncated (Rust/OCaml) semantics; a zero
     divisor stays symbolic *)
  | Div, Int x, Int y when y <> 0 -> int (x / y)
  | Mod, Int x, Int y when y <> 0 -> int (x mod y)
  | Add, _, Int 0 | Sub, _, Int 0 | Mul, _, Int 1 | Div, _, Int 1 -> a
  | Add, Int 0, _ | Mul, Int 1, _ -> b
  | Mul, _, Int 0 | Mul, Int 0, _ -> int 0
  (* negative constant divisors normalize to positive ones — exact for
     truncation: a / (-c) = -(a / c) and a % (-c) = a % c — so the LIA
     linearization (positive divisors only) covers them too *)
  | Div, _, Int c when c < 0 -> make (Neg (mk_binop Div a (int (-c))))
  | Mod, _, Int c when c < 0 -> mk_binop Mod a (int (-c))
  | _ -> make (Binop (op, a, b))

let add a b = mk_binop Add a b
let sub a b = mk_binop Sub a b
let mul a b = mk_binop Mul a b
let div a b = mk_binop Div a b
let md a b = mk_binop Mod a b

let neg t = match t.node with Int n -> int (-n) | Neg t -> t | _ -> make (Neg t)

let mk_cmp op a b =
  match (a.node, b.node) with
  | Int x, Int y ->
      bool
        (match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y)
  | _ -> make (Cmp (op, a, b))

let lt a b = mk_cmp Lt a b
let le a b = mk_cmp Le a b
let gt a b = mk_cmp Gt a b
let ge a b = mk_cmp Ge a b

let mk_eq a b =
  match (a.node, b.node) with
  | Int x, Int y -> bool (x = y)
  | Bool x, Bool y -> bool (x = y)
  | Bool true, _ -> b
  | _, Bool true -> a
  | Bool false, _ -> mk_not b
  | _, Bool false -> mk_not a
  | _ -> if equal a b then tt else make (Eq (a, b))

let mk_ne a b =
  match (a.node, b.node) with
  | Int x, Int y -> bool (x <> y)
  | Bool x, Bool y -> bool (x <> y)
  | _ -> if equal a b then ff else make (Ne (a, b))

let eq = mk_eq
let ne = mk_ne

let ite c a b =
  match c.node with Bool true -> a | Bool false -> b | _ -> make (Ite (c, a, b))

let app f ts = make (App (f, ts))

(* ------------------------------------------------------------------ *)
(* Sorts                                                               *)
(* ------------------------------------------------------------------ *)

exception Ill_sorted of string

let rec sort_of t =
  match t.node with
  | Var (_, s) -> s
  | Int _ -> Sort.Int
  | Real _ -> Sort.Real
  | Bool _ -> Sort.Bool
  | Binop (_, a, _) -> sort_of a
  | Neg a -> sort_of a
  | Cmp _ | Eq _ | Ne _ | And _ | Or _ | Not _ | Imp _ | Iff _ -> Sort.Bool
  | Ite (_, a, _) -> sort_of a
  | App _ -> Sort.Int

let is_pred t = Sort.equal (sort_of t) Sort.Bool

(* ------------------------------------------------------------------ *)
(* Free variables and substitution                                     *)
(* ------------------------------------------------------------------ *)

let rec fold_vars f acc t =
  match t.node with
  | Var (x, s) -> f acc x s
  | Int _ | Real _ | Bool _ -> acc
  | Neg a | Not a -> fold_vars f acc a
  | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
    ->
      fold_vars f (fold_vars f acc a) b
  | And ts | Or ts | App (_, ts) -> List.fold_left (fold_vars f) acc ts
  | Ite (a, b, c) -> fold_vars f (fold_vars f (fold_vars f acc a) b) c

(** Free-variable set, memoized on the node: after the first
    computation, [free_vars] on the same term is a field read — the
    payoff for cone-of-influence slicing, which re-tags the same
    hypotheses on every weakening iteration. Only nodes of this domain's
    current table are written: a term shared with other domains or kept
    from before a reset is never mutated, so no two domains race on a
    node, and the work (and allocation) of a check does not depend on
    what earlier checks memoized. *)
let rec free_vars t =
  match t.fvs with
  | Some s -> s
  | None ->
      let s =
        match t.node with
        | Var (x, _) -> VarSet.singleton x
        | Int _ | Real _ | Bool _ -> VarSet.empty
        | Neg a | Not a -> free_vars a
        | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
          ->
            VarSet.union (free_vars a) (free_vars b)
        | And ts | Or ts | App (_, ts) ->
            List.fold_left (fun acc t -> VarSet.union acc (free_vars t)) VarSet.empty ts
        | Ite (a, b, c) ->
            VarSet.union (free_vars a) (VarSet.union (free_vars b) (free_vars c))
      in
      if t.tag lsr stamp_shift = (Domain.DLS.get table_dls).stamp then t.fvs <- Some s;
      s

let free_vars_sorted t =
  fold_vars
    (fun acc x s -> if List.mem_assoc x acc then acc else (x, s) :: acc)
    [] t
  |> List.rev

let mem_var x t = VarSet.mem x (free_vars t)

(** Cone-of-influence slicing, shared by [Solver.entails_sliced] and
    the fixpoint solver: keep exactly the hypotheses transitively
    sharing a variable with [seed] (each hypothesis pre-tagged with its
    free variables, which [free_vars] memoizes). Dropping hypotheses
    only weakens the left-hand side of an entailment, so slicing is
    sound for validity. The result order is unspecified. *)
let cone_of_influence (hyps : (t * VarSet.t) list) (seed : VarSet.t) : t list =
  let seed = ref seed in
  let remaining = ref hyps in
  let kept = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    remaining :=
      List.filter
        (fun (h, vs) ->
          if not (VarSet.disjoint vs !seed) then begin
            kept := h :: !kept;
            seed := VarSet.union vs !seed;
            changed := true;
            false
          end
          else true)
        !remaining
  done;
  !kept

(** Capture-free is not a concern: the logic is quantifier-free. *)
let rec subst (m : (string * t) list) t =
  match t.node with
  | Var (x, _) -> ( match List.assoc_opt x m with Some u -> u | None -> t)
  | Int _ | Real _ | Bool _ -> t
  | Binop (op, a, b) -> mk_binop op (subst m a) (subst m b)
  | Neg a -> neg (subst m a)
  | Cmp (op, a, b) -> mk_cmp op (subst m a) (subst m b)
  | Eq (a, b) -> mk_eq (subst m a) (subst m b)
  | Ne (a, b) -> mk_ne (subst m a) (subst m b)
  | And ts -> mk_and (List.map (subst m) ts)
  | Or ts -> mk_or (List.map (subst m) ts)
  | Not a -> mk_not (subst m a)
  | Imp (a, b) -> mk_imp (subst m a) (subst m b)
  | Iff (a, b) -> mk_iff (subst m a) (subst m b)
  | Ite (a, b, c) -> ite (subst m a) (subst m b) (subst m c)
  | App (f, ts) -> app f (List.map (subst m) ts)

let subst1 x u t = subst [ (x, u) ] t

(** Rename variables according to [m]; variables not in [m] are kept.
    Structure-preserving (no simplification). *)
let rec rename_vars (m : (string * string) list) t =
  match t.node with
  | Var (x, s) -> (
      match List.assoc_opt x m with Some y -> make (Var (y, s)) | None -> t)
  | Int _ | Real _ | Bool _ -> t
  | Binop (op, a, b) -> make (Binop (op, rename_vars m a, rename_vars m b))
  | Neg a -> make (Neg (rename_vars m a))
  | Cmp (op, a, b) -> make (Cmp (op, rename_vars m a, rename_vars m b))
  | Eq (a, b) -> make (Eq (rename_vars m a, rename_vars m b))
  | Ne (a, b) -> make (Ne (rename_vars m a, rename_vars m b))
  | And ts -> make (And (List.map (rename_vars m) ts))
  | Or ts -> make (Or (List.map (rename_vars m) ts))
  | Not a -> make (Not (rename_vars m a))
  | Imp (a, b) -> make (Imp (rename_vars m a, rename_vars m b))
  | Iff (a, b) -> make (Iff (rename_vars m a, rename_vars m b))
  | Ite (a, b, c) -> make (Ite (rename_vars m a, rename_vars m b, rename_vars m c))
  | App (f, ts) -> make (App (f, List.map (rename_vars m) ts))

(* ------------------------------------------------------------------ *)
(* Size & printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec size t =
  match t.node with
  | Var _ | Int _ | Real _ | Bool _ -> 1
  | Neg a | Not a -> 1 + size a
  | Binop (_, a, b) | Cmp (_, a, b) | Eq (a, b) | Ne (a, b) | Imp (a, b) | Iff (a, b)
    ->
      1 + size a + size b
  | And ts | Or ts | App (_, ts) -> List.fold_left (fun n t -> n + size t) 1 ts
  | Ite (a, b, c) -> 1 + size a + size b + size c

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let cmpop_str = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp fmt t =
  match t.node with
  | Var (x, _) -> Format.pp_print_string fmt x
  | Int n -> Format.pp_print_int fmt n
  | Real x -> Format.pp_print_float fmt x
  | Bool b -> Format.pp_print_bool fmt b
  | Binop (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp a (binop_str op) pp b
  | Neg a -> Format.fprintf fmt "(- %a)" pp a
  | Cmp (op, a, b) -> Format.fprintf fmt "%a %s %a" pp a (cmpop_str op) pp b
  | Eq (a, b) -> Format.fprintf fmt "%a = %a" pp a pp b
  | Ne (a, b) -> Format.fprintf fmt "%a != %a" pp a pp b
  | And ts ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " && ")
           pp)
        ts
  | Or ts ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " || ")
           pp)
        ts
  | Not a -> Format.fprintf fmt "!(%a)" pp a
  | Imp (a, b) -> Format.fprintf fmt "(%a => %a)" pp a pp b
  | Iff (a, b) -> Format.fprintf fmt "(%a <=> %a)" pp a pp b
  | Ite (a, b, c) -> Format.fprintf fmt "(if %a then %a else %a)" pp a pp b pp c
  | App (f, ts) ->
      Format.fprintf fmt "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp)
        ts

let to_string t = Format.asprintf "%a" pp t
