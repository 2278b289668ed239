(** Span-event sinks: where completed spans go.

    Two built-ins — an in-memory ring buffer (tests) and a JSONL writer
    (offline analysis via [Report]). Sinks are installed into the span
    layer with {!Span.install} / {!Span.with_sink}. *)

type t = {
  emit : Event.t -> unit;
  close : unit -> unit;  (** flush and release resources; idempotent use is the caller's job *)
}

val memory : unit -> t * (unit -> Event.t list)
(** Ring buffer keeping the last 4096 events.
    The second component returns the retained events oldest-first. *)

val jsonl : ?flush_every:int -> string -> t
(** Write one JSON object per event to the given file path, truncating
    an existing file. The channel is flushed every [flush_every] events
    (default 64; [<= 0] disables periodic flushing), so a killed process
    still leaves a readable prefix. [close] flushes and closes the
    channel. *)
