(* Console output helper: the single funnel for human-readable progress
   lines, so CLI/bench output goes through the observability layer
   rather than scattered bare Printf calls. *)

let info fmt = Printf.printf fmt

let print_metrics ?(title = "metrics") ?(r = Metrics.global) () =
  print_string (Metrics.render ~title (Metrics.snapshot ~r ()));
  flush stdout
