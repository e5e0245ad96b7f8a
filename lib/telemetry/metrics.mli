(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    Registration ({!counter}, {!gauge}, {!histogram}) happens once, up
    front, and may allocate; it is idempotent — registering a name twice
    returns the existing instrument, so several SMs (or repeated runs into
    the same registry) can share instruments without coordination. The
    update path ({!inc}, {!set}, {!observe}) is allocation-free: one
    mutable-field store, or for histograms a linear scan of a small
    preallocated bucket array.

    Naming convention (see EXPERIMENTS.md "Observability"): every metric
    is prefixed [regmutex_]; monotonic counters end in [_total]; cycle
    histograms end in [_cycles]; gauges name the measured quantity
    directly. Dumps come in Prometheus text exposition format
    ({!pp_prometheus}) and JSON ({!pp_json}), both in registration
    order. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** [counter t name] registers (or retrieves) a monotonic counter.
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : ?help:string -> t -> string -> counter

val gauge : ?help:string -> t -> string -> gauge

(** [histogram ~buckets t name] — [buckets] are the inclusive upper bounds
    of each bucket, strictly increasing; an implicit [+Inf] overflow
    bucket is appended. On retrieval of an existing histogram the bucket
    bounds must match.
    @raise Invalid_argument on unsorted/empty bounds or a kind/bound
    mismatch with an existing registration. *)
val histogram : ?help:string -> buckets:int array -> t -> string -> histogram

val inc : counter -> int -> unit
val set : gauge -> float -> unit

(** [observe h v] adds [v] to the first bucket whose bound is [>= v] (the
    overflow bucket when none is). *)
val observe : histogram -> int -> unit

val counter_value : counter -> int
val gauge_value : gauge -> float

(** Per-bucket counts (not cumulative), overflow bucket last — length is
    [Array.length buckets + 1]. Fresh copy. *)
val histogram_counts : histogram -> int array

val histogram_sum : histogram -> int
val histogram_total : histogram -> int
val histogram_buckets : histogram -> int array

(** Prometheus text exposition format: [# HELP] / [# TYPE] headers,
    cumulative [_bucket{le="..."}] series plus [_sum] / [_count] for
    histograms. *)
val pp_prometheus : Format.formatter -> t -> unit

(** One JSON object: [{"counters": {...}, "gauges": {...},
    "histograms": {name: {"buckets": [{"le": b, "count": n}, ...],
    "sum": s, "count": c}}}]. *)
val pp_json : Format.formatter -> t -> unit
