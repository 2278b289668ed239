(* Pluggable time source. Production uses the wall clock; tests install
   a hand-advanced fake so span durations are exact.

   Every install also mirrors the source into [Posetrl_support.Pool]'s
   clock ref: pool timing stamps are taken on worker domains (support
   can't depend on obs), but they must tick on the same clock as the
   spans and pool-utilization math built on top of them. *)

let source = ref Unix.gettimeofday
let now () = !source ()

let set f =
  source := f;
  Posetrl_support.Pool.clock := f

let with_fake f =
  let t = ref 0.0 in
  let saved = !source in
  set (fun () -> !t);
  Fun.protect
    ~finally:(fun () ->
      source := saved;
      Posetrl_support.Pool.clock := saved)
    (fun () -> f (fun d -> t := !t +. d))
