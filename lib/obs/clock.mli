(** The time source behind all observability timestamps.

    Spans and timing histograms read [now ()], which defaults to the
    wall clock but can be swapped for a deterministic fake in tests
    ([with_fake]) so duration and self-time accounting is exact.
    Installing a source also mirrors it into [Posetrl_support.Pool]'s
    clock ref, so pool timing stamps (taken on worker domains) tick on
    the same clock. *)

val now : unit -> float
(** Current time in seconds. Monotone under the default source for the
    purposes of span timing (durations are differences of [now]). *)

val set : (unit -> float) -> unit
(** Replace the time source. *)

val with_fake : ((float -> unit) -> 'a) -> 'a
(** [with_fake f] installs a fake clock starting at 0
    and calls [f advance] where [advance d] moves the clock forward by
    [d] seconds. The previous source is restored on exit, including on
    exceptions. *)
