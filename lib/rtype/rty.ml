(** Refinement types (the τ of §3.1), in the normalized representation
    used by the checker.

    A base type carries either a concrete tuple of index terms
    ([Ix ts], the paper's B⟨r⟩) or an existential package
    ([Ex (binders, preds)], the paper's {v. B⟨v⟩ | r}) whose predicates
    may be unknown κ applications — that is how join/instantiation
    templates are represented (§4.2–4.3). The environment keeps
    location types in [Ix] form by eagerly unpacking existentials into
    fresh rigid variables, exactly as the implementation described in
    §4.1 ("Flux introduces a fresh refinement variable as soon as an
    existential type goes into the context"); [Ex] survives only inside
    container element positions and in function signatures.

    Borrows whose target the checker knows are [TPtr] (the paper's
    ptr(ℓ) strong pointers); borrows received from callees or callers
    are opaque [TRef]s permitting weak updates only. *)

open Flux_smt
open Flux_fixpoint
module Ast = Flux_syntax.Ast
module Ir = Flux_mir.Ir

type refkind = Shr | Mut | Strg

type rty =
  | TBase of base * refinement
  | TRef of refkind * rty
  | TPtr of refkind * Ir.place  (** strong pointer to a known location *)
  | TUninit of Ast.ty  (** moved-out or not-yet-initialized memory *)

and base =
  | BInt of Ast.int_kind
  | BBool
  | BFloat
  | BUnit
  | BVec of rty  (** element type; the single index is the length *)
  | BStruct of string

and refinement =
  | Ix of Term.t list
  | Ex of (string * Sort.t) list * Horn.pred list

exception Type_error of string

let terr fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Fresh names                                                         *)
(* ------------------------------------------------------------------ *)

(* Domain-local so parallel per-function checks draw from independent
   streams; the checker additionally resets the counter at each
   function entry, making generated names (and thus κ names, clauses
   and reports) deterministic regardless of which domain runs the
   check. Collisions between the binder names of different signatures
   are harmless: existential binders are always renamed ([Sub.unpack])
   or substituted away ([Sub.sub]) before they can meet a context. *)
let counter : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let reset_fresh () = Domain.DLS.get counter := 0

let fresh_name prefix =
  let c = Domain.DLS.get counter in
  incr c;
  Printf.sprintf "%s!%d" prefix !c

(* ------------------------------------------------------------------ *)
(* Index sorts and invariants                                          *)
(* ------------------------------------------------------------------ *)

type struct_info = {
  si_name : string;
  si_params : (string * Sort.t) list;  (** from [#[lr::refined_by]] *)
  si_fields : (string * rty) list;  (** field types, params free *)
  si_invariant : Term.t option;  (** over the params *)
}

type struct_env = (string, struct_info) Hashtbl.t

(** Sorts of the index tuple of a base. *)
let index_sorts (senv : struct_env) (b : base) : Sort.t list =
  match b with
  | BInt _ -> [ Sort.Int ]
  | BBool -> [ Sort.Bool ]
  | BFloat | BUnit -> []
  | BVec _ -> [ Sort.Int ]
  | BStruct s -> (
      match Hashtbl.find_opt senv s with
      | Some si -> List.map snd si.si_params
      | None -> terr "unknown struct %s" s)

(** Invariants assumed of a base's indices (cf. design decision 4 in
    DESIGN.md): [usize] values and vector lengths are non-negative, and
    user structs may declare an [#[lr::invariant]]. *)
let index_invariants (senv : struct_env) (b : base) (ts : Term.t list) :
    Term.t list =
  match (b, ts) with
  | BInt Ast.Usize, [ t ] -> [ Term.ge t (Term.int 0) ]
  | BVec _, [ t ] -> [ Term.ge t (Term.int 0) ]
  | BStruct s, ts -> (
      match Hashtbl.find_opt senv s with
      | Some { si_invariant = Some inv; si_params; _ } ->
          [ Term.subst (List.map2 (fun (x, _) t -> (x, t)) si_params ts) inv ]
      | _ -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

let subst_pred (m : (string * Term.t) list) (p : Horn.pred) : Horn.pred =
  match p with
  | Horn.Conc t -> Horn.Conc (Term.subst m t)
  | Horn.Kapp (k, args) -> Horn.Kapp (k, List.map (Term.subst m) args)

let rec subst_rty (m : (string * Term.t) list) (t : rty) : rty =
  if m = [] then t
  else
    match t with
    | TBase (b, r) -> TBase (subst_base m b, subst_refinement m r)
    | TRef (k, t') -> TRef (k, subst_rty m t')
    | TPtr _ | TUninit _ -> t

and subst_base m = function
  | BVec elt -> BVec (subst_rty m elt)
  | b -> b

and subst_refinement m = function
  | Ix ts -> Ix (List.map (Term.subst m) ts)
  | Ex (binders, preds) ->
      (* binders shadow the substitution *)
      let m' = List.filter (fun (x, _) -> not (List.mem_assoc x binders)) m in
      Ex (binders, List.map (subst_pred m') preds)

(* ------------------------------------------------------------------ *)
(* Shapes                                                              *)
(* ------------------------------------------------------------------ *)

(** The unrefined shape of a refinement type. *)
let rec to_shape (t : rty) : Ast.ty =
  match t with
  | TBase (BInt k, _) -> Ast.TInt k
  | TBase (BBool, _) -> Ast.TBool
  | TBase (BFloat, _) -> Ast.TFloat
  | TBase (BUnit, _) -> Ast.TUnit
  | TBase (BVec elt, _) -> Ast.TVec (to_shape elt)
  | TBase (BStruct s, _) -> Ast.TStruct s
  | TRef (Shr, t') -> Ast.TRef (Ast.Imm, to_shape t')
  | TRef ((Mut | Strg), t') -> Ast.TRef (Ast.Mut, to_shape t')
  | TPtr _ -> Ast.TRef (Ast.Mut, Ast.TUnit) (* opaque; shape rarely needed *)
  | TUninit ty -> ty

(** The fully-unrefined type of a plain Rust type: every base gets the
    trivial existential. *)
let rec of_plain_ty (t : Ast.ty) : rty =
  match t with
  | Ast.TInt k -> TBase (BInt k, Ex ([ (fresh_name "v", Sort.Int) ], []))
  | Ast.TBool -> TBase (BBool, Ex ([ (fresh_name "v", Sort.Bool) ], []))
  | Ast.TFloat -> TBase (BFloat, Ix [])
  | Ast.TUnit -> TBase (BUnit, Ix [])
  | Ast.TVec elt ->
      TBase (BVec (of_plain_ty elt), Ex ([ (fresh_name "v", Sort.Int) ], []))
  | Ast.TStruct s ->
      (* sorts filled in lazily: trivial existential over unknown arity
         is represented with an empty binder list, meaning "any";
         structs in unrefined position are rare. *)
      TBase (BStruct s, Ex ([], []))
  | Ast.TRef (Ast.Imm, t') -> TRef (Shr, of_plain_ty t')
  | Ast.TRef (Ast.Mut, t') -> TRef (Mut, of_plain_ty t')
  | Ast.TParam x -> terr "cannot refine a type parameter %s" x
  | Ast.TInfer _ -> terr "unresolved inference variable in type"

(* ------------------------------------------------------------------ *)
(* Templates (phase 1 of §4.2 / instantiation of §4.3)                 *)
(* ------------------------------------------------------------------ *)

(** Pre-generate the top-level existential binders for a shape (what a
    local of this shape exports to the join's ghost-variable scope):
    one binder per index of the base, none for references. *)
let top_binders (senv : struct_env) (shape : Ast.ty) : (string * Sort.t) list =
  match shape with
  | Ast.TFloat | Ast.TUnit | Ast.TRef _ -> []
  | Ast.TInt _ -> [ (fresh_name "v", Sort.Int) ]
  | Ast.TBool -> [ (fresh_name "v", Sort.Bool) ]
  | Ast.TVec _ -> [ (fresh_name "len", Sort.Int) ]
  | Ast.TStruct s ->
      List.map (fun srt -> (fresh_name "ix", srt)) (index_sorts senv (BStruct s))
  | Ast.TParam x -> terr "cannot build a template for type parameter %s" x
  | Ast.TInfer _ -> terr "unresolved inference variable in template shape"

(** [?top] overrides the generated top-level binders (used at joins,
    where every local's binders are in every κ's scope — the paper's
    κ(b, c) relates all the join's ghost variables). The binders must
    not already occur in [scope]. *)
let rec template (senv : struct_env) ~(declare : Horn.kvar -> unit)
    ~(scope : (string * Sort.t) list) ?top (shape : Ast.ty) : rty =
  let binders =
    match top with Some bs -> bs | None -> top_binders senv shape
  in
  let kvar_of binders =
    let kname = fresh_name "$k" in
    let params = binders @ scope in
    declare
      { Horn.kname; Horn.kparams = params; Horn.kvalues = List.length binders };
    Horn.Kapp (kname, List.map (fun (x, s) -> Term.var ~sort:s x) params)
  in
  match shape with
  | Ast.TFloat -> TBase (BFloat, Ix [])
  | Ast.TUnit -> TBase (BUnit, Ix [])
  | Ast.TInt k -> TBase (BInt k, Ex (binders, [ kvar_of binders ]))
  | Ast.TBool -> TBase (BBool, Ex (binders, [ kvar_of binders ]))
  | Ast.TVec elt_shape ->
      (* the vector's length binder is in scope for the element κs *)
      let elt =
        template senv ~declare ~scope:(scope @ binders) elt_shape
      in
      TBase (BVec elt, Ex (binders, [ kvar_of binders ]))
  | Ast.TStruct s -> TBase (BStruct s, Ex (binders, [ kvar_of binders ]))
  | Ast.TRef (Ast.Imm, t') -> TRef (Shr, template senv ~declare ~scope t')
  | Ast.TRef (Ast.Mut, t') -> TRef (Mut, template senv ~declare ~scope t')
  | Ast.TParam x -> terr "cannot build a template for type parameter %s" x
  | Ast.TInfer _ -> terr "unresolved inference variable in template shape"

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp fmt (t : rty) =
  match t with
  | TBase (b, Ix []) -> pp_base fmt b
  | TBase (b, Ix ts) ->
      Format.fprintf fmt "%a<%a>" pp_base b
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           Term.pp)
        ts
  | TBase (b, Ex (binders, preds)) ->
      Format.fprintf fmt "{%a. %a | %a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
           (fun fmt (x, _) -> Format.pp_print_string fmt x))
        binders pp_base b
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " && ")
           Horn.pp_pred)
        preds
  | TRef (Shr, t) -> Format.fprintf fmt "&%a" pp t
  | TRef (Mut, t) -> Format.fprintf fmt "&mut %a" pp t
  | TRef (Strg, t) -> Format.fprintf fmt "&strg %a" pp t
  | TPtr (k, p) ->
      Format.fprintf fmt "ptr(%s_%d%s)"
        (match k with Shr -> "shr " | Mut -> "mut " | Strg -> "strg ")
        p.Ir.base
        (String.concat ""
           (List.map
              (function Ir.PDeref -> ".*" | Ir.PField f -> "." ^ f)
              p.Ir.projs))
  | TUninit ty -> Format.fprintf fmt "uninit(%a)" Ast.pp_ty ty

and pp_base fmt = function
  | BInt k -> Format.pp_print_string fmt (Ast.int_kind_str k)
  | BBool -> Format.pp_print_string fmt "bool"
  | BFloat -> Format.pp_print_string fmt "f32"
  | BUnit -> Format.pp_print_string fmt "()"
  | BVec elt -> Format.fprintf fmt "RVec<%a>" pp elt
  | BStruct s -> Format.pp_print_string fmt s

let to_string t = Format.asprintf "%a" pp t
