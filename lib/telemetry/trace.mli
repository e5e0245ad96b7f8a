(** Ring-buffer trace recorder with Chrome trace-event (Perfetto) export.

    Records are typed, fixed-size and held in flat arrays
    (structure-of-arrays) that double geometrically up to the capacity —
    attaching a trace to a short run costs a few pages, not the full
    window — after which recording never allocates. Growth only happens
    before the first wrap, so drop-oldest behaviour is identical to a
    preallocated ring. Timestamps are simulation cycles; tracks
    follow the Chrome model — a [pid] per process (one per SM, plus one
    for the GPU driver) and a [tid] per thread (one per warp slot, plus
    reserved tracks for stall episodes and CTA slots).

    Spans are recorded {e at completion} (Chrome ["X"] complete events
    carrying [ts] + [dur]), so the ring degrades gracefully: when it
    fills, the {e oldest} records are overwritten ({!dropped} counts them)
    and the retained window is always a well-formed suffix of the run —
    no dangling begin/end pairs. *)

type t

type kind = Span | Instant | Counter

(** Decoded view of one record (allocated on read, never on write).
    [name] is resolved back from its interned id; [arg] is [None] when
    the record carried {!no_arg}. *)
type record = {
  kind : kind;
  ts : int;
  dur : int;   (** spans only; 0 otherwise *)
  pid : int;
  tid : int;
  name : string;
  arg : int option;
}

(** [capacity] (default 1,000,000 records; clamped to >= 1) bounds the
    retained window; the buffer grows lazily up to it. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Intern a name, returning the id the recording functions take.
    Allocates only on the first occurrence of a string. *)
val intern : t -> string -> int

(** Sentinel for "no argument" ([min_int]). *)
val no_arg : int

(** [span t ~ts ~dur ~pid ~tid ~name ~arg] records a complete span
    ([ph:"X"]) covering [\[ts, ts+dur)]. *)
val span : t -> ts:int -> dur:int -> pid:int -> tid:int -> name:int -> arg:int -> unit

val instant : t -> ts:int -> pid:int -> tid:int -> name:int -> arg:int -> unit

(** [counter t ~ts ~pid ~name ~value] records a counter sample
    ([ph:"C"]); Perfetto renders one counter track per [(pid, name)]. *)
val counter : t -> ts:int -> pid:int -> name:int -> value:int -> unit

(** Records currently retained (<= capacity). *)
val length : t -> int

(** Oldest records overwritten after the ring filled. *)
val dropped : t -> int

(** Total records ever pushed ([length + dropped]). *)
val recorded : t -> int

(** Oldest-to-newest over the retained window. *)
val iter : t -> (record -> unit) -> unit

(** Track naming, exported as Chrome [M] (metadata) events. *)
val set_process_name : t -> pid:int -> string -> unit

val set_thread_name : t -> pid:int -> tid:int -> string -> unit

(** Chrome trace-event JSON: [{"traceEvents": [...]}], loadable in
    Perfetto (ui.perfetto.dev) or chrome://tracing. Metadata events
    first, then the retained records oldest-to-newest. *)
val export_chrome : Format.formatter -> t -> unit
