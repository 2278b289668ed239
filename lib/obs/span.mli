(** Nested span tracing.

    [with_ name f] times the execution of [f], nests under any
    enclosing span, and emits one {!Event.t} to every installed sink
    when [f] returns (or raises — the event then carries an ["error"]
    attribute and the exception is re-raised).

    With no sink installed, [with_] is a no-op wrapper: no clock read,
    no allocation beyond the closure call — cheap enough to leave on
    every hot path permanently.

    The span stack is domain-local and the emit path is serialized, so
    spans opened on pool worker domains trace safely: they nest
    per-domain and their JSONL lines never interleave. *)

type t
(** A live span handle, valid only inside its [with_] callback. *)

val with_ : ?attrs:(string * Event.value) list -> string -> (t -> 'a) -> 'a
(** Run the callback under a span named [name] (convention:
    [posetrl.<area>.<name>]). [attrs] seed the event's attributes. *)

val set_attr : t -> string -> Event.value -> unit
(** Attach an attribute to a live span (appended after the seed attrs);
    ignored when tracing is disabled. *)

val enabled : unit -> bool
(** True iff at least one sink is installed. Use to gate attr
    computations that are themselves expensive. *)

val install : Sink.t -> unit
(** Add a sink (events fan out to every installed sink). *)

val remove : Sink.t -> unit
(** Remove a previously installed sink (physical equality); does not
    close it. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install the sink, run the thunk, then remove and close the sink —
    exception-safe. *)

val emit :
  ?attrs:(string * Event.value) list ->
  name:string -> t_start:float -> dur:float -> unit -> unit
(** Emit a pre-timed complete event (self = dur) at the caller's current
    nesting depth, on the calling domain; a no-op with no sink
    installed. For work whose lifetime does not nest inside one
    callback, such as a queued serve request. *)
