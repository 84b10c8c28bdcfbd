(** Subtyping as constraint generation (fig. 8 of the paper).

    [sub] reduces a subtyping obligation τ₁ ≼ τ₂ under a logical
    context to a list of flat Horn clauses: S-RType emits index
    equalities, S-Exists instantiates the right-hand existential with
    the left-hand indices (emitting its predicates as clause heads,
    possibly κ applications), and S-Unpack opens left-hand existentials
    into fresh rigid binders and hypotheses. References follow
    S-Bor-Shr/S-Bor-Mut: shared references are covariant, mutable ones
    are checked in both directions. *)

open Flux_smt
open Flux_fixpoint
open Rty

type cx = {
  binders : (string * Sort.t) list;
  hyps : Horn.pred list;
}

let empty_cx = { binders = []; hyps = [] }

let push_binder cx (x, s) = { cx with binders = cx.binders @ [ (x, s) ] }
let push_hyp cx p = { cx with hyps = cx.hyps @ [ p ] }
let push_hyps cx ps = { cx with hyps = cx.hyps @ ps }

let clause cx ~tag (head : Horn.pred) : Horn.clause =
  { Horn.binders = cx.binders; Horn.hyps = cx.hyps; Horn.head = head; Horn.tag = tag }

(** Open an existential refinement: fresh rigid binders, substituted
    base and predicates, plus the index invariants of the base. *)
let unpack (senv : struct_env) (b : base) (binders : (string * Sort.t) list)
    (preds : Horn.pred list) :
    (string * Sort.t) list * Horn.pred list * base * Term.t list =
  let renaming =
    List.map (fun (x, s) -> (x, fresh_name (if x = "" then "v" else x), s)) binders
  in
  let m = List.map (fun (x, y, s) -> (x, Term.var ~sort:s y)) renaming in
  let fresh_binders = List.map (fun (_, y, s) -> (y, s)) renaming in
  let ts = List.map (fun (_, y, s) -> Term.var ~sort:s y) renaming in
  let b' = subst_base m b in
  let preds' = List.map (subst_pred m) preds in
  let invs = List.map (fun t -> Horn.Conc t) (index_invariants senv b' ts) in
  (fresh_binders, preds' @ invs, b', ts)

(** Normalize an [rty] so that its top-level refinement is [Ix]:
    existentials are opened into [cx]. Returns the extended context. *)
let normalize (senv : struct_env) (cx : cx) (t : rty) : cx * rty =
  match t with
  | TBase (b, Ex (bs, ps)) ->
      let fresh_bs, hyp_ps, b', ts = unpack senv b bs ps in
      let cx = { binders = cx.binders @ fresh_bs; hyps = cx.hyps @ hyp_ps } in
      (cx, TBase (b', Ix ts))
  | _ -> (cx, t)

let rec sub (senv : struct_env) (cx : cx) ~(tag : int) (t1 : rty) (t2 : rty) :
    Horn.clause list =
  match (t1, t2) with
  | TBase (_, Ex _), _ ->
      let cx, t1' = normalize senv cx t1 in
      sub senv cx ~tag t1' t2
  | TBase (b1, Ix ts1), TBase (b2, Ex ([], [])) ->
      (* unrefined right-hand side of unknown arity: base check only *)
      ignore ts1;
      base_sub senv cx ~tag b1 b2
  | TBase (b1, Ix ts1), TBase (b2, Ex (bs, ps)) ->
      if List.length bs <> List.length ts1 then
        terr "index arity mismatch: %s vs %s" (to_string t1) (to_string t2);
      let m = List.map2 (fun (x, _) t -> (x, t)) bs ts1 in
      let b2' = subst_base m b2 in
      let heads = List.map (subst_pred m) ps in
      base_sub senv cx ~tag b1 b2'
      @ List.filter_map
          (fun h ->
            match h with
            | Horn.Conc { node = Term.Bool true; _ } -> None
            | _ -> Some (clause cx ~tag h))
          heads
  | TBase (b1, Ix ts1), TBase (b2, Ix ts2) ->
      if List.length ts1 <> List.length ts2 then
        terr "index arity mismatch: %s vs %s" (to_string t1) (to_string t2);
      base_sub senv cx ~tag b1 b2
      @ List.concat_map
          (fun (a, b) ->
            if Term.equal a b then []
            else [ clause cx ~tag (Horn.Conc (Term.mk_eq a b)) ])
          (List.combine ts1 ts2)
  | TRef ((Shr | Mut | Strg), a), TRef (Shr, b) ->
      (* shared references are covariant; &mut coerces to & *)
      sub senv cx ~tag a b
  | TRef ((Mut | Strg), a), TRef ((Mut | Strg), b) ->
      sub senv cx ~tag a b @ sub senv cx ~tag b a
  | TPtr (_, p1), TPtr (_, p2) when p1 = p2 -> []
  | TUninit _, TUninit _ -> []
  | _ -> terr "incompatible types: %s vs %s" (to_string t1) (to_string t2)

and base_sub senv cx ~tag (b1 : base) (b2 : base) : Horn.clause list =
  match (b1, b2) with
  | BInt k1, BInt k2 when k1 = k2 -> []
  | BBool, BBool | BFloat, BFloat | BUnit, BUnit -> []
  | BVec e1, BVec e2 -> sub senv cx ~tag e1 e2
  | BStruct s1, BStruct s2 when String.equal s1 s2 -> []
  | _ ->
      terr "incompatible base types: %s vs %s"
        (Format.asprintf "%a" pp_base b1)
        (Format.asprintf "%a" pp_base b2)
