(* Built-in span sinks: ring buffer and JSONL writer. *)

type t = {
  emit : Event.t -> unit;
  close : unit -> unit;
}

let memory () : t * (unit -> Event.t list) =
  let q : Event.t Queue.t = Queue.create () in
  let emit e =
    Queue.add e q;
    if Queue.length q > 4096 then ignore (Queue.pop q)
  in
  ({ emit; close = ignore }, fun () -> List.of_seq (Queue.to_seq q))

let jsonl ?(flush_every = 64) (path : string) : t =
  let oc = open_out path in
  (* flush on a period so a killed process still leaves every line up to
     the last flush intact and parseable (crash tolerance) *)
  let pending = ref 0 in
  { emit =
      (fun e ->
        output_string oc (Json.to_string (Event.to_json e));
        output_char oc '\n';
        incr pending;
        if flush_every > 0 && !pending >= flush_every then begin
          flush oc;
          pending := 0
        end);
    close = (fun () -> close_out oc) }
