(* Translation validation by differential simulation: given the module
   before and after a pass application, run both under the reference
   interpreter on deterministic seed-derived inputs and require exact
   agreement on every observable (return value, printed output, and —
   for per-function checks — the final contents of a scratch buffer the
   pointer parameters alias into).

   This is concretized checking, not a proof: a reported mismatch is
   always a real behavioural divergence; agreement on all seeds is
   strong evidence, not certainty. Both sides trapping counts as
   agreement, and an out-of-fuel run on either side skips the
   comparison rather than failing it. *)

open Posetrl_ir

type mismatch = {
  func : string;  (* function the divergence was observed through *)
  detail : string;
}

val default_fuel : int

(* Can [f] be driven from a harness? Every parameter must be a scalar
   or one of a bounded number of pointers. *)
val harnessable : Func.t -> bool

(* Validate one pass application; [] means no divergence observed.
   [per_function] should be true for function-scope passes: each
   changed definition is then also driven through its own harness.
   Module-scope passes (inlining, IPO) are validated through [main]
   alone. *)
val validate :
  ?fuel:int -> ?per_function:bool -> before:Modul.t -> Modul.t -> mismatch list
