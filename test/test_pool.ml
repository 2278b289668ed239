(* Tests for the domain pool: the deterministic [map] contract (results
   in input order, byte-identical to the sequential map for every pool
   width), exception propagation, shutdown semantics and per-task
   timings. *)

open Posetrl_support

(* the property the whole multicore engine rests on:
   Pool.map ~jobs:n f xs = List.map f xs for any n *)
let prop_map_matches_list_map =
  QCheck2.Test.make ~count:40
    ~print:QCheck2.Print.(pair int (list int))
    ~name:"Pool.map agrees with List.map (jobs 1/2/8)"
    QCheck2.Gen.(
      pair (int_range 0 2)
        (list_size (int_range 0 40) (int_range (-1000) 1000)))
    (fun (jidx, xs) ->
      let jobs = List.nth [ 1; 2; 8 ] jidx in
      let f x = (x * 31) lxor (x asr 2) in
      Pool.with_pool ~jobs (fun p -> Pool.map_list p f xs) = List.map f xs)

(* results stay in input order even when early tasks finish last *)
let test_order_under_skew () =
  Pool.with_pool ~jobs:4 (fun p ->
      let f i =
        if i = 0 then Unix.sleepf 0.02;
        i * i
      in
      Alcotest.(check (array int))
        "input order" [| 0; 1; 4; 9; 16; 25; 36; 49 |]
        (Pool.map p f (Array.init 8 Fun.id)))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun p ->
      (match
         Pool.map p
           (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
           (Array.init 10 Fun.id)
       with
       | _ -> Alcotest.fail "expected Boom"
       | exception Boom i ->
         Alcotest.(check int) "lowest failing index wins" 1 i);
      (* a failed batch must not poison the pool *)
      Alcotest.(check (array int)) "pool survives the failure"
        [| 0; 2; 4 |]
        (Pool.map p (fun x -> 2 * x) [| 0; 1; 2 |]))

let test_exception_propagation_inline () =
  (* the jobs=1 inline path propagates immediately too *)
  Pool.with_pool ~jobs:1 (fun p ->
      match Pool.map p (fun i -> raise (Boom i)) [| 7 |] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "index" 7 i)

let test_shutdown_idempotent () =
  let shutdown_then_probe jobs =
    let p = Pool.create ~jobs () in
    Alcotest.(check int) "jobs recorded" jobs (Pool.jobs p);
    Alcotest.(check bool) "alive after create" false (Pool.is_shutdown p);
    Pool.shutdown p;
    Pool.shutdown p;
    (* second call is a no-op *)
    Alcotest.(check bool) "shut down" true (Pool.is_shutdown p);
    match Pool.map p Fun.id [| 1 |] with
    | _ -> Alcotest.fail "map after shutdown must raise"
    | exception Invalid_argument _ -> ()
  in
  shutdown_then_probe 1;
  shutdown_then_probe 3

let test_with_pool_shuts_down () =
  let leaked = ref None in
  let r = Pool.with_pool ~jobs:2 (fun p -> leaked := Some p; 41 + 1) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check bool) "pool closed on exit" true
    (Pool.is_shutdown (Option.get !leaked));
  (* ... also on the exception path *)
  (match Pool.with_pool ~jobs:2 (fun p -> leaked := Some p; raise (Boom 0)) with
   | () -> Alcotest.fail "expected Boom"
   | exception Boom _ -> ());
  Alcotest.(check bool) "pool closed on raise" true
    (Pool.is_shutdown (Option.get !leaked))

let test_map_timed () =
  Pool.with_pool ~jobs:2 (fun p ->
      let rs, ts = Pool.map_timed p (fun x -> x + 1) [| 10; 20; 30 |] in
      Alcotest.(check (array int)) "results" [| 11; 21; 31 |] rs;
      Alcotest.(check int) "one timing per task" 3 (Array.length ts);
      Array.iter
        (fun (tm : Pool.timing) ->
          Alcotest.(check bool) "duration non-negative" true (tm.Pool.t_dur >= 0.0))
        ts)

(* Obs.Clock.set mirrors into Pool.clock, so under a fake clock the
   per-task stamps are fully deterministic: the jobs=1 inline path
   reads the clock exactly twice per task. *)
let test_map_timed_fake_clock () =
  Posetrl_obs.Clock.with_fake (fun advance ->
      Pool.with_pool ~jobs:1 (fun p ->
          let _, ts =
            Pool.map_timed p (fun x -> advance 2.0; x) [| 1; 2 |]
          in
          Array.iter
            (fun (tm : Pool.timing) ->
              Alcotest.(check (float 1e-9)) "fake-clock task duration" 2.0
                tm.Pool.t_dur)
            ts;
          Alcotest.(check (float 1e-9)) "tasks stamped back to back" 2.0
            (ts.(1).Pool.t_start -. ts.(0).Pool.t_start)));
  (* with_fake restored both clocks: real time flows again *)
  Alcotest.(check bool) "wall clock restored" true
    (Posetrl_obs.Clock.now () > 1e9)

let test_empty_and_create_guard () =
  Pool.with_pool ~jobs:2 (fun p ->
      Alcotest.(check (array int)) "empty batch" [||] (Pool.map p Fun.id [||]));
  match Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs=0 must be rejected"
  | exception Invalid_argument _ -> ()

(* many batches through one pool: workers are reused, results stay exact *)
let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun p ->
      for round = 1 to 20 do
        let xs = Array.init (1 + (round mod 7)) (fun i -> (round * 100) + i) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.map (fun x -> x + 1) xs)
          (Pool.map p (fun x -> x + 1) xs)
      done)

let suite =
  [ QCheck_alcotest.to_alcotest prop_map_matches_list_map;
    Alcotest.test_case "order under skew" `Quick test_order_under_skew;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "exception propagation (inline)" `Quick
      test_exception_propagation_inline;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "with_pool shuts down" `Quick test_with_pool_shuts_down;
    Alcotest.test_case "map_timed" `Quick test_map_timed;
    Alcotest.test_case "map_timed under fake clock" `Quick
      test_map_timed_fake_clock;
    Alcotest.test_case "empty batch + create guard" `Quick
      test_empty_and_create_guard;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse ]
