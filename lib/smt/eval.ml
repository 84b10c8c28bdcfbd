(** Concrete evaluation of terms under a finite assignment — the
    ground-truth side of the differential solver oracle.

    [eval] interprets the QF-LIA + bool fragment exactly as {!Solver}
    claims to decide it: truncated division and remainder (OCaml [/]
    and [mod], matching the interpreter and Rust), short-circuit-free
    boolean connectives, and integer comparisons. Anything the solver
    only treats opaquely ([Real] atoms, uninterpreted [App]s) raises
    {!Unsupported}: a differential check has no ground truth for
    opaque abstractions, so callers must avoid or skip such terms.

    Division or remainder by zero raises [Division_by_zero]; the fuzz
    generators only emit nonzero divisors, and the shrinker preserves
    that invariant. *)

type value = VInt of int | VBool of bool

exception Unsupported of string

let pp_value fmt = function
  | VInt n -> Format.pp_print_int fmt n
  | VBool b -> Format.pp_print_bool fmt b

let as_int = function
  | VInt n -> n
  | VBool _ -> raise (Unsupported "boolean used as integer")

let as_bool = function
  | VBool b -> b
  | VInt _ -> raise (Unsupported "integer used as boolean")

(** Evaluate [t] under [env] (mapping every free variable to a value).
    An unbound variable raises [Not_found]. *)
let rec eval (env : string -> value) (t : Term.t) : value =
  match Term.view t with
  | Term.Var (x, _) -> env x
  | Term.Int n -> VInt n
  | Term.Bool b -> VBool b
  | Term.Real _ -> raise (Unsupported "real constant")
  | Term.App (f, _) -> raise (Unsupported ("uninterpreted application " ^ f))
  | Term.Binop (op, a, b) ->
      let x = as_int (eval env a) and y = as_int (eval env b) in
      VInt
        (match op with
        | Term.Add -> x + y
        | Term.Sub -> x - y
        | Term.Mul -> x * y
        | Term.Div -> x / y
        | Term.Mod -> x mod y)
  | Term.Neg a -> VInt (-as_int (eval env a))
  | Term.Cmp (op, a, b) ->
      let x = as_int (eval env a) and y = as_int (eval env b) in
      VBool
        (match op with
        | Term.Lt -> x < y
        | Term.Le -> x <= y
        | Term.Gt -> x > y
        | Term.Ge -> x >= y)
  | Term.Eq (a, b) -> VBool (value_eq (eval env a) (eval env b))
  | Term.Ne (a, b) -> VBool (not (value_eq (eval env a) (eval env b)))
  | Term.And ts -> VBool (List.for_all (fun t -> as_bool (eval env t)) ts)
  | Term.Or ts -> VBool (List.exists (fun t -> as_bool (eval env t)) ts)
  | Term.Not a -> VBool (not (as_bool (eval env a)))
  | Term.Imp (a, b) ->
      VBool ((not (as_bool (eval env a))) || as_bool (eval env b))
  | Term.Iff (a, b) ->
      VBool (Bool.equal (as_bool (eval env a)) (as_bool (eval env b)))
  | Term.Ite (c, a, b) -> if as_bool (eval env c) then eval env a else eval env b

and value_eq a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VBool x, VBool y -> x = y
  | _ -> raise (Unsupported "equality at mixed sorts")

let eval_bool env t = as_bool (eval env t)
let eval_int env t = as_int (eval env t)

(** Enumerate every assignment of [vars] drawn from [ints] (for
    integer- and loc-sorted variables) and both booleans, calling [f]
    on each. Stops early when [f] returns [Some _]. The enumeration
    order is fixed (row-major in the given variable order), so searches
    are deterministic. *)
let find_assignment ~(ints : int list) (vars : (string * Sort.t) list)
    (f : (string -> value) -> 'a option) : 'a option =
  let rec go bound = function
    | [] ->
        let env x =
          match List.assoc_opt x bound with
          | Some v -> v
          | None -> raise Not_found
        in
        f env
    | (x, s) :: rest ->
        let candidates =
          match s with
          | Sort.Bool -> [ VBool false; VBool true ]
          | Sort.Int | Sort.Loc -> List.map (fun n -> VInt n) ints
          | Sort.Real -> raise (Unsupported "real variable")
        in
        List.find_map (fun v -> go ((x, v) :: bound) rest) candidates
  in
  go [] vars
