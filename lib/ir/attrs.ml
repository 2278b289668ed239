(* Function and module attributes.

   Several Oz passes (functionattrs, inferattrs, forceattrs, attributor,
   rpo-functionattrs, alignment-from-assumptions, ...) communicate through
   attributes rather than by rewriting instructions. We model attributes as
   a sorted string set; the codegen size model and the MCA throughput model
   consult a few of them (e.g. [optsize], [align16]). *)

module S = Set.Make (String)

type t = S.t

let empty = S.empty

let of_list = S.of_list

let to_list = S.elements

let add = S.add

let mem = S.mem

let union = S.union

let equal = S.equal

(* Attribute names used across the code base; kept here so passes and cost
   models agree on spelling. *)
let readonly = "readonly"
let readnone = "readnone"
let nounwind = "nounwind"
let norecurse = "norecurse"
let willreturn = "willreturn"
let inline_hint = "inlinehint"
let noinline = "noinline"
let always_inline = "alwaysinline"
let optsize = "optsize"
let minsize = "minsize"
let cold = "cold"
let instrumented = "instrumented"
let aligned16 = "align16"
let speculatable = "speculatable"

let pp ppf t =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") string) (to_list t)
