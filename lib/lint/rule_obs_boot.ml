(* R11 obs-boot-only: Observatory handle discipline. The Obs registry
   resolves a (name, labels) pair to a handle by hashing and listing —
   fine once, at boot, where every adopter does it (Qp.create, kernel
   boot, Replica_group.create). Calling [Obs.Registry.counter] (or
   gauge/histogram/probe) on a steady-state path re-runs that
   resolution per event and quietly re-introduces allocation and
   lookup cost the handle design exists to avoid.

   Scope mirrors R7: hot modules only, with cold-constructor bindings
   (boot, create, connect, make_ and create_ prefixes) exempt —
   registration inside them is exactly the intended pattern. *)

(* Bind our sibling Config before Ppxlib shadows it with its own. *)
module Cfg = Config
open Ppxlib

let id = "obs-boot-only"

let doc =
  "Obs.Registry.counter/gauge/histogram/probe resolve handles and must \
   only run at boot: in hot modules, registration is confined to \
   cold-constructor bindings (boot/create/connect/make_*); hot paths \
   use the pre-resolved handles"

let is_registration p =
  let rec ends_with = function
    | [ "Registry"; ("counter" | "gauge" | "histogram" | "probe") ] -> true
    | _ :: rest -> ends_with rest
    | [] -> false
  in
  ends_with p

let check ~(ctx : Cfg.ctx) ~cold_in_scope (e : expression) : Rule.site list =
  if (not (Cfg.is_hot ctx)) || cold_in_scope then []
  else
    let p = Rule.path_of_expr e in
    if is_registration p then
      [
        ( id,
          e.pexp_loc,
          Printf.sprintf
            "`%s` resolves an Obs handle on a hot module's steady-state \
             path; register once in a cold constructor (boot/create/connect) \
             and keep the handle, or justify with [@lint.allow \
             \"obs-boot-only\"]"
            (String.concat "." p) );
      ]
    else []
