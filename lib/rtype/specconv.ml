(** Conversion from the surface specification language (attributes
    parsed into {!Flux_syntax.Ast.rty}/[rexpr]) into internal refinement
    types and SMT terms, including resolution of [@binder] refinement
    parameters and function-signature assembly. *)

open Flux_smt
open Flux_fixpoint
open Rty
module Ast = Flux_syntax.Ast

exception Spec_error of string

let serr fmt = Format.kasprintf (fun s -> raise (Spec_error s)) fmt

type cx = {
  senv : struct_env;
  mutable params : (string * Sort.t) list;  (** collected [@binders] *)
  mutable scope : (string * Sort.t) list;  (** value binders, invariants *)
}

let make_cx senv = { senv; params = []; scope = [] }

let lookup_sort cx x =
  match List.assoc_opt x cx.scope with
  | Some s -> Some s
  | None -> List.assoc_opt x cx.params

(* ------------------------------------------------------------------ *)
(* Refinement expressions → terms                                      *)
(* ------------------------------------------------------------------ *)

let rec conv_term (cx : cx) (e : Ast.expr) : Term.t =
  match e.Ast.e with
  | Ast.EInt n -> Term.int n
  | Ast.EBool b -> Term.bool b
  | Ast.EFloat f -> Term.real f
  | Ast.EUnit -> serr "unit value in refinement"
  | Ast.EVar x -> (
      match lookup_sort cx x with
      | Some s -> Term.var ~sort:s x
      | None -> serr "unbound refinement variable %s" x)
  | Ast.EBin (op, a, b) -> (
      let ta = conv_term cx a and tb = conv_term cx b in
      match op with
      | Ast.Add -> Term.add ta tb
      | Ast.Sub -> Term.sub ta tb
      | Ast.Mul -> Term.mul ta tb
      | Ast.Div -> Term.div ta tb
      | Ast.Rem -> Term.md ta tb
      | Ast.Lt -> Term.lt ta tb
      | Ast.Le -> Term.le ta tb
      | Ast.Gt -> Term.gt ta tb
      | Ast.Ge -> Term.ge ta tb
      | Ast.EqOp -> Term.eq ta tb
      | Ast.NeOp -> Term.ne ta tb
      | Ast.AndOp -> Term.mk_and [ ta; tb ]
      | Ast.OrOp -> Term.mk_or [ ta; tb ]
      | Ast.ImpOp -> Term.mk_imp ta tb)
  | Ast.EUn (Ast.Not, a) -> Term.mk_not (conv_term cx a)
  | Ast.EUn (Ast.NegOp, a) -> Term.neg (conv_term cx a)
  | Ast.EIf (c, t, f) -> (
      match ((t : Ast.block), f) with
      | { stmts = []; tail = Some te; _ }, Some { stmts = []; tail = Some fe; _ }
        ->
          Term.ite (conv_term cx c) (conv_term cx te) (conv_term cx fe)
      | _ -> serr "only simple if-expressions are allowed in refinements")
  | _ -> serr "unsupported refinement expression: %a" Ast.pp_expr e

(* ------------------------------------------------------------------ *)
(* Refined types                                                       *)
(* ------------------------------------------------------------------ *)

let conv_base (cx : cx) conv_rty (b : Ast.rbase) : base =
  match b with
  | Ast.RBInt k -> BInt k
  | Ast.RBFloat -> BFloat
  | Ast.RBBool -> BBool
  | Ast.RBUnit -> BUnit
  | Ast.RBVec elt -> BVec (conv_rty cx elt)
  | Ast.RBStruct s ->
      if not (Hashtbl.mem cx.senv s) then serr "unknown struct %s in spec" s;
      BStruct s
  | Ast.RBParam x ->
      serr "type parameter %s is only allowed in built-in library signatures" x

let conv_index (cx : cx) (sort : Sort.t) (ix : Ast.index) : Term.t =
  match ix with
  | Ast.IxBinder n ->
      (match List.assoc_opt n cx.params with
      | Some s ->
          if not (Sort.equal s sort) then
            serr "binder @%s used at two different sorts" n
      | None -> cx.params <- cx.params @ [ (n, sort) ]);
      Term.var ~sort n
  | Ast.IxExpr e -> conv_term cx e

let rec conv_rty (cx : cx) (t : Ast.rty) : rty =
  match t with
  | Ast.RBase (b, []) ->
      let b' = conv_base cx conv_rty b in
      (match b' with
      | BFloat -> TBase (BFloat, Ix [])
      | BUnit -> TBase (BUnit, Ix [])
      | _ ->
          let sorts = index_sorts cx.senv b' in
          let binders = List.map (fun s -> (fresh_name "v", s)) sorts in
          TBase (b', Ex (binders, [])))
  | Ast.RBase (b, idxs) ->
      let b' = conv_base cx conv_rty b in
      let sorts = index_sorts cx.senv b' in
      if List.length sorts <> List.length idxs then
        serr "wrong number of indices for %a" pp_base b';
      let ts = List.map2 (conv_index cx) sorts idxs in
      TBase (b', Ix ts)
  | Ast.RExists (v, b, p) ->
      let b' = conv_base cx conv_rty b in
      (match index_sorts cx.senv b' with
      | [ s ] ->
          let saved = cx.scope in
          cx.scope <- (v, s) :: cx.scope;
          let pred = conv_term cx p in
          cx.scope <- saved;
          TBase (b', Ex ([ (v, s) ], [ Horn.Conc pred ]))
      | _ ->
          serr "existential refinement requires a singly-indexed base, got %a"
            pp_base b')
  | Ast.RRef (k, inner) ->
      let kind =
        match k with Ast.RShr -> Shr | Ast.RMut -> Mut | Ast.RStrg -> Strg
      in
      TRef (kind, conv_rty cx inner)
  | Ast.RFn _ -> serr "function types are not first-class"

(* ------------------------------------------------------------------ *)
(* Function signatures                                                 *)
(* ------------------------------------------------------------------ *)

type fsig = {
  fsg_name : string;
  fsg_params : (string * Sort.t) list;  (** refinement parameters *)
  fsg_args : rty list;
  fsg_requires : Term.t list;
  fsg_ret : rty;
  fsg_ensures : (int * rty) list;
      (** argument position → updated type after return (strg refs) *)
}

(** A fully-unrefined signature for functions without a Flux spec. *)
let default_sig (fd : Ast.fn_def) : fsig =
  {
    fsg_name = fd.Ast.fn_name;
    fsg_params = [];
    fsg_args = List.map (fun (_, t) -> of_plain_ty t) fd.Ast.fn_params;
    fsg_requires = [];
    fsg_ret = of_plain_ty fd.Ast.fn_ret;
    fsg_ensures = [];
  }

(** Resolve a parsed [#[lr::sig(...)]] against the function's plain
    parameter list. *)
let resolve_sig (senv : struct_env) (fd : Ast.fn_def) : fsig =
  (* Start each signature's fresh-name stream at zero: resolved
     signatures (and hence their fingerprints in the incremental
     cache) depend only on the function's own spec text, not on how
     many names earlier signatures consumed. Binder-name collisions
     across signatures are harmless — see [Rty.fresh_name]. *)
  reset_fresh ();
  match fd.Ast.fn_sig with
  | None -> default_sig fd
  | Some s ->
      let cx = make_cx senv in
      if List.length s.Ast.fs_args <> List.length fd.Ast.fn_params then
        serr "signature of %s has %d argument types but the function has %d"
          fd.Ast.fn_name
          (List.length s.Ast.fs_args)
          (List.length fd.Ast.fn_params);
      let args = List.map (conv_rty cx) s.Ast.fs_args in
      let ret = conv_rty cx s.Ast.fs_ret in
      let requires = List.map (conv_term cx) s.Ast.fs_requires in
      let ensures =
        List.map
          (fun (name, t) ->
            let pos =
              let rec find i = function
                | [] -> serr "ensures clause mentions unknown parameter %s" name
                | (x, _) :: _ when String.equal x name -> i
                | _ :: rest -> find (i + 1) rest
              in
              find 0 fd.Ast.fn_params
            in
            (pos, conv_rty cx t))
          s.Ast.fs_ensures
      in
      {
        fsg_name = fd.Ast.fn_name;
        fsg_params = cx.params;
        fsg_args = args;
        fsg_requires = requires;
        fsg_ret = ret;
        fsg_ensures = ensures;
      }

(* ------------------------------------------------------------------ *)
(* Structs                                                             *)
(* ------------------------------------------------------------------ *)

(** Resolve a struct definition. [senv] may already contain the other
    structs (struct types can mention each other in fields). *)
let resolve_struct (senv : struct_env) (sd : Ast.struct_def) : struct_info =
  (* Same per-declaration reset as [resolve_sig]. *)
  reset_fresh ();
  let cx = make_cx senv in
  cx.params <- sd.Ast.st_refined_by;
  let fields =
    List.map
      (fun (f : Ast.field_def) ->
        let t =
          match f.Ast.fd_rty with
          | Some rt -> conv_rty cx rt
          | None -> of_plain_ty f.Ast.fd_ty
        in
        (f.Ast.fd_name, t))
      sd.Ast.st_fields
  in
  let invariant = Option.map (conv_term cx) sd.Ast.st_invariant in
  if List.length cx.params <> List.length sd.Ast.st_refined_by then
    serr "field specifications of %s introduce new binders" sd.Ast.st_name;
  {
    si_name = sd.Ast.st_name;
    si_params = sd.Ast.st_refined_by;
    si_fields = fields;
    si_invariant = invariant;
  }

let build_struct_env (prog : Ast.program) : struct_env =
  let senv : struct_env = Hashtbl.create 8 in
  (* two passes so that struct fields can reference other structs *)
  List.iter
    (fun sd ->
      Hashtbl.replace senv sd.Ast.st_name
        {
          si_name = sd.Ast.st_name;
          si_params = sd.Ast.st_refined_by;
          si_fields = [];
          si_invariant = None;
        })
    (Ast.program_structs prog);
  List.iter
    (fun sd -> Hashtbl.replace senv sd.Ast.st_name (resolve_struct senv sd))
    (Ast.program_structs prog);
  senv
