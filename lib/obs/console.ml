(* Console output helper: the single funnel for human-readable progress
   lines, so CLI/bench output goes through the observability layer
   rather than scattered bare Printf calls. *)

let info fmt = Printf.printf fmt

let print_metrics ?(oc = stdout) ?(title = "metrics") ?(r = Metrics.global) () =
  output_string oc (Metrics.render ~title (Metrics.snapshot ~r ()));
  flush oc
