(** Reproducer files for the fuzzing corpus.

    Each bug the campaign finds is written to [fuzz-corpus/] in a
    self-contained, re-parseable format, and every file checked into
    that directory is replayed as a regression test by
    [test/test_fuzz.ml]:

    - [*.rs] — a shrunk program for the soundness oracle (plain
      source, re-checked and re-executed on replay);
    - [*.term] — an S-expression of a term for the solver oracle
      (re-evaluated differentially on replay);
    - [*.horn] — an S-expression of a κ declaration set plus clause
      set for the fixpoint oracle (re-solved and re-validated).

    The S-expression syntax is deliberately tiny (atoms and parens, [;]
    line comments) because {!Flux_smt.Term.pp}'s output is for humans,
    not round trips. *)

open Flux_smt
open Flux_fixpoint

(* ------------------------------------------------------------------ *)
(* S-expressions                                                       *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

let parse_sexps (src : string) : sexp list =
  let n = String.length src in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr i;
        skip_ws ()
    | Some ';' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done;
        skip_ws ()
    | _ -> ()
  in
  let atom () =
    let start = !i in
    while
      !i < n
      && match src.[!i] with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
         | _ -> true
    do
      incr i
    done;
    if !i = start then raise (Parse_error "empty atom");
    Atom (String.sub src start (!i - start))
  in
  let rec sexp () =
    skip_ws ();
    match peek () with
    | Some '(' ->
        incr i;
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              incr i;
              List (List.rev acc)
          | None -> raise (Parse_error "unclosed '('")
          | _ -> items (sexp () :: acc)
        in
        items []
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | None -> raise (Parse_error "unexpected end of input")
    | _ -> atom ()
  in
  let rec top acc =
    skip_ws ();
    if !i >= n then List.rev acc else top (sexp () :: acc)
  in
  top []

let rec pp_sexp buf = function
  | Atom a -> Buffer.add_string buf a
  | List xs ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ' ';
          pp_sexp buf x)
        xs;
      Buffer.add_char buf ')'

let sexps_to_string (xs : sexp list) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun x ->
      pp_sexp buf x;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let sort_to_atom = function
  | Sort.Int -> "int"
  | Sort.Bool -> "bool"
  | Sort.Loc -> "loc"
  | Sort.Real -> "real"

let sort_of_atom = function
  | "int" -> Sort.Int
  | "bool" -> Sort.Bool
  | "loc" -> Sort.Loc
  | "real" -> Sort.Real
  | s -> raise (Parse_error ("unknown sort " ^ s))

let binop_tag = function
  | Term.Add -> "add"
  | Term.Sub -> "sub"
  | Term.Mul -> "mul"
  | Term.Div -> "div"
  | Term.Mod -> "mod"

let cmpop_tag = function
  | Term.Lt -> "lt"
  | Term.Le -> "le"
  | Term.Gt -> "gt"
  | Term.Ge -> "ge"

let rec term_to_sexp (t : Term.t) : sexp =
  let l tag xs = List (Atom tag :: xs) in
  match Term.view t with
  | Term.Var (x, s) -> l "var" [ Atom x; Atom (sort_to_atom s) ]
  | Term.Int n -> l "int" [ Atom (string_of_int n) ]
  | Term.Bool b -> l "bool" [ Atom (string_of_bool b) ]
  | Term.Real x -> l "real" [ Atom (string_of_float x) ]
  | Term.Binop (op, a, b) ->
      l (binop_tag op) [ term_to_sexp a; term_to_sexp b ]
  | Term.Neg a -> l "neg" [ term_to_sexp a ]
  | Term.Cmp (op, a, b) -> l (cmpop_tag op) [ term_to_sexp a; term_to_sexp b ]
  | Term.Eq (a, b) -> l "eq" [ term_to_sexp a; term_to_sexp b ]
  | Term.Ne (a, b) -> l "ne" [ term_to_sexp a; term_to_sexp b ]
  | Term.And ts -> l "and" (List.map term_to_sexp ts)
  | Term.Or ts -> l "or" (List.map term_to_sexp ts)
  | Term.Not a -> l "not" [ term_to_sexp a ]
  | Term.Imp (a, b) -> l "imp" [ term_to_sexp a; term_to_sexp b ]
  | Term.Iff (a, b) -> l "iff" [ term_to_sexp a; term_to_sexp b ]
  | Term.Ite (c, a, b) ->
      l "ite" [ term_to_sexp c; term_to_sexp a; term_to_sexp b ]
  | Term.App (f, ts) -> l "app" (Atom f :: List.map term_to_sexp ts)

let rec term_of_sexp (s : sexp) : Term.t =
  match s with
  | List (Atom tag :: args) -> (
      let t1 () = match args with [ a ] -> term_of_sexp a | _ -> raise (Parse_error tag) in
      let t2 () =
        match args with
        | [ a; b ] -> (term_of_sexp a, term_of_sexp b)
        | _ -> raise (Parse_error tag)
      in
      match tag with
      | "var" -> (
          match args with
          | [ Atom x; Atom s ] -> Term.var ~sort:(sort_of_atom s) x
          | _ -> raise (Parse_error "var"))
      | "int" -> (
          match args with
          | [ Atom n ] -> Term.int (int_of_string n)
          | _ -> raise (Parse_error "int"))
      | "bool" -> (
          match args with
          | [ Atom b ] -> Term.bool (bool_of_string b)
          | _ -> raise (Parse_error "bool"))
      | "real" -> (
          match args with
          | [ Atom x ] -> Term.real (float_of_string x)
          | _ -> raise (Parse_error "real"))
      | "add" | "sub" | "mul" | "div" | "mod" ->
          let a, b = t2 () in
          let op =
            match tag with
            | "add" -> Term.Add
            | "sub" -> Term.Sub
            | "mul" -> Term.Mul
            | "div" -> Term.Div
            | _ -> Term.Mod
          in
          Term.mk_binop op a b
      | "neg" -> Term.neg (t1 ())
      | "lt" | "le" | "gt" | "ge" ->
          let a, b = t2 () in
          let op =
            match tag with
            | "lt" -> Term.Lt
            | "le" -> Term.Le
            | "gt" -> Term.Gt
            | _ -> Term.Ge
          in
          Term.mk_cmp op a b
      | "eq" ->
          let a, b = t2 () in
          Term.mk_eq a b
      | "ne" ->
          let a, b = t2 () in
          Term.mk_ne a b
      | "and" -> Term.mk_and (List.map term_of_sexp args)
      | "or" -> Term.mk_or (List.map term_of_sexp args)
      | "not" -> Term.mk_not (t1 ())
      | "imp" ->
          let a, b = t2 () in
          Term.mk_imp a b
      | "iff" ->
          let a, b = t2 () in
          Term.mk_iff a b
      | "ite" -> (
          match args with
          | [ c; a; b ] ->
              Term.ite (term_of_sexp c) (term_of_sexp a) (term_of_sexp b)
          | _ -> raise (Parse_error "ite"))
      | "app" -> (
          match args with
          | Atom f :: ts -> Term.app f (List.map term_of_sexp ts)
          | _ -> raise (Parse_error "app"))
      | _ -> raise (Parse_error ("unknown term tag " ^ tag)))
  | _ -> raise (Parse_error "expected (tag ...)")

let term_to_string (t : Term.t) : string =
  sexps_to_string [ term_to_sexp t ]

let term_of_string (src : string) : Term.t =
  match parse_sexps src with
  | [ s ] -> term_of_sexp s
  | _ -> raise (Parse_error "expected exactly one term")

(* ------------------------------------------------------------------ *)
(* Horn systems                                                        *)
(* ------------------------------------------------------------------ *)

let binder_to_sexp (x, s) = List [ Atom x; Atom (sort_to_atom s) ]

let binder_of_sexp = function
  | List [ Atom x; Atom s ] -> (x, sort_of_atom s)
  | _ -> raise (Parse_error "binder")

let pred_to_sexp = function
  | Horn.Conc t -> List [ Atom "c"; term_to_sexp t ]
  | Horn.Kapp (k, ts) -> List (Atom "k" :: Atom k :: List.map term_to_sexp ts)

let pred_of_sexp = function
  | List [ Atom "c"; t ] -> Horn.Conc (term_of_sexp t)
  | List (Atom "k" :: Atom k :: ts) -> Horn.Kapp (k, List.map term_of_sexp ts)
  | _ -> raise (Parse_error "pred")

let clause_to_sexp (cl : Horn.clause) : sexp =
  List
    [
      Atom "clause";
      Atom (string_of_int cl.Horn.tag);
      List (List.map binder_to_sexp cl.Horn.binders);
      List (List.map pred_to_sexp cl.Horn.hyps);
      pred_to_sexp cl.Horn.head;
    ]

let clause_of_sexp = function
  | List [ Atom "clause"; Atom tag; List binders; List hyps; head ] ->
      {
        Horn.tag = int_of_string tag;
        binders = List.map binder_of_sexp binders;
        hyps = List.map pred_of_sexp hyps;
        head = pred_of_sexp head;
      }
  | _ -> raise (Parse_error "clause")

let kvar_to_sexp (kv : Horn.kvar) : sexp =
  List
    [
      Atom "kvar";
      Atom kv.Horn.kname;
      List (List.map binder_to_sexp kv.Horn.kparams);
      Atom (string_of_int kv.Horn.kvalues);
    ]

let kvar_of_sexp = function
  | List [ Atom "kvar"; Atom kname; List params; Atom kvalues ] ->
      {
        Horn.kname;
        kparams = List.map binder_of_sexp params;
        kvalues = int_of_string kvalues;
      }
  | _ -> raise (Parse_error "kvar")

let horn_to_string (kvars : Horn.kvar list) (clauses : Horn.clause list) :
    string =
  sexps_to_string (List.map kvar_to_sexp kvars @ List.map clause_to_sexp clauses)

let horn_of_string (src : string) : Horn.kvar list * Horn.clause list =
  let sexps = parse_sexps src in
  let kvars, clauses =
    List.partition
      (function List (Atom "kvar" :: _) -> true | _ -> false)
      sexps
  in
  (List.map kvar_of_sexp kvars, List.map clause_of_sexp clauses)
