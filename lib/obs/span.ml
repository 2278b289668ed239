(* Nested, monotonic-clock span tracing.

   Self-time is accounted online: every active span accumulates the
   durations of its direct children, so the emitted event carries
   self = dur - children and the offline report never reconstructs the
   tree. Children complete before their parents, so a JSONL trace lists
   events innermost-first.

   The fast path matters: with no sink installed [with_] must not read
   the clock or allocate a span, because it wraps Dqn forwards, MCA
   evaluations and every pass execution. *)

type t = {
  s_name : string;
  mutable s_attrs : (string * Event.value) list; (* reversed *)
  s_start : float;
  mutable s_children : float;
  s_depth : int;
  s_live : bool;
}

(* shared no-op span handed to callbacks when tracing is off *)
let disabled_span =
  { s_name = ""; s_attrs = []; s_start = 0.0; s_children = 0.0; s_depth = 0;
    s_live = false }

let sinks : Sink.t list ref = ref []

(* The span stack is domain-local: a worker domain nests its own spans
   without racing the owner's stack or inheriting its depth. Sinks stay
   global (installed from the owner domain around parallel regions);
   the emit path below serializes writers so JSONL lines never tear. *)
let stack_key : t list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let emit_lock = Mutex.create ()

let enabled () = !sinks <> []

let install (s : Sink.t) = sinks := !sinks @ [ s ]
let remove (s : Sink.t) = sinks := List.filter (fun s' -> s' != s) !sinks

let with_sink (s : Sink.t) (f : unit -> 'a) : 'a =
  install s;
  Fun.protect
    ~finally:(fun () ->
      remove s;
      s.Sink.close ())
    f

let set_attr (sp : t) (k : string) (v : Event.value) =
  if sp.s_live then sp.s_attrs <- (k, v) :: sp.s_attrs

let emit_event (ev : Event.t) =
  Mutex.lock emit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock emit_lock)
    (fun () -> List.iter (fun (s : Sink.t) -> s.Sink.emit ev) !sinks)

let self_tid () = (Domain.self () :> int)

let finish (sp : t) =
  let t1 = Clock.now () in
  let stack = stack () in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  let dur = t1 -. sp.s_start in
  (match !stack with
   | parent :: _ -> parent.s_children <- parent.s_children +. dur
   | [] -> ());
  emit_event
    { Event.name = sp.s_name;
      attrs = List.rev sp.s_attrs;
      t_start = sp.s_start;
      dur;
      self = Float.max 0.0 (dur -. sp.s_children);
      depth = sp.s_depth;
      tid = self_tid () }

let with_ ?(attrs = []) (name : string) (f : t -> 'a) : 'a =
  if !sinks == [] then f disabled_span
  else begin
    let stack = stack () in
    let sp =
      { s_name = name;
        s_attrs = List.rev attrs;
        s_start = Clock.now ();
        s_children = 0.0;
        s_depth = List.length !stack;
        s_live = true }
    in
    stack := sp :: !stack;
    match f sp with
    | v ->
      finish sp;
      v
    | exception e ->
      set_attr sp "error" (Event.S (Printexc.to_string e));
      finish sp;
      raise e
  end

(* Emit a pre-timed complete event at the caller's current depth, on the
   caller's domain — for work that does not nest inside one callback (a
   queued serve request is answered on a later pump than the one that
   read it). *)
let emit ?(attrs = []) ~(name : string) ~(t_start : float) ~(dur : float)
    () : unit =
  if !sinks != [] then
    emit_event
      { Event.name;
        attrs;
        t_start;
        dur;
        self = dur;
        depth = List.length !(stack ());
        tid = self_tid () }
