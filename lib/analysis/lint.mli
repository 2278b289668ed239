(* Static IR lint: turns the analyses (verifier, use-def demand,
   available expressions, effects, points-to, value ranges) into a
   structured findings report for `posetrl lint`.

   Severity policy (what the CI gate keys on):
     - Error:   structural verifier failures, SSA dominance violations,
                purity attributes contradicted by the function body.
     - Warning: dead stores, unreachable blocks, branches the
                value-range analysis proves constant (dead-branch) and
                blocks whose path conditions contradict
                (contradicted-range).
     - Info:    dead pure code, recomputed available expressions,
                missing purity attributes, arithmetic that may wrap its
                type (possible-overflow) and same-block stores through
                pointers that may alias (may-alias-store-conflict). *)

open Posetrl_ir

type severity = Error | Warning | Info

val severity_to_string : severity -> string
val severity_of_string : string -> (severity, string) result

type finding = {
  severity : severity;
  rule : string;          (* stable kebab-case rule name *)
  func : string;
  block : string option;
  message : string;
}

(* The value-range rule group alone (dead-branch, contradicted-range,
   possible-overflow), for tests that pin its findings. *)
val absint_findings : Func.t -> finding list

(* All rules over every defined function, sorted by severity
   (descending), rule, function and block for a stable report. *)
val lint_module : Modul.t -> finding list

val count : severity -> finding list -> int

(* Does any finding reach severity [s] or higher? The `--fail-on`
   gate. *)
val reaches : severity -> finding list -> bool

val to_json : name:string -> finding list -> Posetrl_obs.Json.t
