(** Memoized, parallel simulation runs with a persistent result store.

    Several figures share the same (architecture, technique, kernel)
    simulations — Figure 7's RegMutex runs reappear in Figures 9(a), 12(a)
    and 13 — so results are cached at three levels, each holding a
    cell's {!Regmutex.Outcome.t}:

    - an in-memory table by cell key ({!key}), for the lifetime of the
      process (until {!clear});
    - optionally (see {!set_cache_dir}) an on-disk store with one file per
      cache key under [<dir>/<version tag>/] (see
      {!Result_store.version_tag}), so repeated CLI or figure runs skip
      simulation entirely. The version directory is named by the running
      executable, so any rebuild gets a fresh one; stale results are
      never replayed;
    - an in-memory memo of outcomes by machine input: the marshalled
      bytes of the run config and the prepared kernel
      ({!Regmutex.Runner.prepare}). A cell that misses both layers above
      is prepared, and simulated only when no earlier cell prepared to
      the same input — e.g. an OWF cell that falls back to the baseline
      kernel, or two |Es| overrides that prepare to the same program.

    An outcome holds what the figures print and fingerprint (the run's
    metrics, its scalar {!Gpu_sim.Stats.counters}, the |Es| choice and
    the plan's sizes) and nothing that grows with the grid or the
    program: no per-warp instruction counts, store or pc traces, and no
    prepared programs. A stored cell is a few hundred bytes, so a warm
    sweep spends its time on the figures rather than on unmarshalling.
    Callers that need a cell's full statistics use {!compute}.

    So a cell is counted twice: {!simulations} counts cells that missed
    the first two levels, {!machine_runs} counts the simulations the memo
    could not serve.

    The simulations a figure makes outside the cell grid (Figure 1's
    traced warps, Figure 2's sampled timelines) go through {!memo}: the
    on-disk store alone, counted in {!machine_runs}. So every simulation
    a sweep makes goes through the engine, and a warm sweep makes none.

    Batches of cells ({!prefetch}, {!run_batch}) are deduplicated and
    fanned out over worker domains (see {!set_jobs}); results are merged
    deterministically, so figure output is byte-identical to a serial run. *)

(** One simulation the engine can run: workload under a technique on an
    architecture, with optional |Es| override or full compile options.
    [variant] is a free-form label that keeps human-readable keys distinct
    when cells differ only in [options] (the ablations use it). *)
type cell

val cell :
  ?es_override:int ->
  ?options:Regmutex.Technique.options ->
  ?variant:string ->
  arch:Gpu_uarch.Arch_config.t ->
  Regmutex.Technique.t ->
  Workloads.Spec.t ->
  cell

(** Cache key of a cell: human-readable prefix (arch, technique, workload,
    |Es|, full-precision grid scale, variant) plus a digest of the entire
    architecture record and compile options, so configurations that differ
    in any parameter can never collide. The digest is computed once per
    distinct (arch, options) value per process. *)
val key :
  ?es_override:int ->
  ?options:Regmutex.Technique.options ->
  ?variant:string ->
  Exp_config.t ->
  arch:Gpu_uarch.Arch_config.t ->
  Regmutex.Technique.t ->
  Workloads.Spec.t ->
  string

(** [run ?es_override ?options ?variant cfg ~arch technique spec] executes
    (or recalls) the simulation of [spec] under [technique] on [arch], and
    returns its outcome. *)
val run :
  ?es_override:int ->
  ?options:Regmutex.Technique.options ->
  ?variant:string ->
  Exp_config.t ->
  arch:Gpu_uarch.Arch_config.t ->
  Regmutex.Technique.t ->
  Workloads.Spec.t ->
  Regmutex.Outcome.t

(** [input_digest config kernel] — hex digest of
    {!Regmutex.Runner.input_key}: folded into a {!memo} key with the
    figure's source kernel, it moves the key whenever a compile input
    (the kernel, or the run config whose policy carries |Bs| and |Es|)
    does. *)
val input_digest : Gpu_sim.Gpu.run_config -> Gpu_sim.Kernel.t -> string

(** [memo ~key f] — the result store for one simulation a figure makes
    outside the cell grid (a traced warp, a sampled timeline). On a store
    hit it returns the stored value; on a miss, or with no store root, it
    calls [f], stores the value and counts one {!machine_runs} ({!simulations}
    counts cells only). [key] starts with the figure's name and folds in
    the {!input_digest} of the run's compile inputs, as cell keys do: any
    compilation belongs inside [f], so a hit compiles nothing. The value
    is what the figure prints from, not the run's statistics. *)
val memo : key:string -> (unit -> 'a) -> 'a

(** Persistent worker pool: domains are spawned once at {!Pool.create}
    and reused across every {!Pool.map} / {!Pool.submit} until
    {!Pool.shutdown}, replacing the old spawn/join-per-call fan-out.
    {!parallel_map} (and through it {!prefetch} and the fuzz driver) runs
    on one process-wide shared pool ({!shared_pool}). *)
module Pool : sig
  type t

  (** [create ~workers] spawns [workers] (>= 0) domains. A 0-worker pool
      is valid: jobs only run when the submitting domain participates
      through {!map}. *)
  val create : workers:int -> t

  val workers : t -> int

  (** Enqueue one asynchronous job; it runs on some worker (exceptions
      are swallowed — jobs that can fail must capture their own result).
      @raise Invalid_argument after {!shutdown}. *)
  val submit : t -> (unit -> unit) -> unit

  (** [map t tasks f] — blocking batch: the caller submits one job per
      task, participates in draining the queue, and waits for the batch.
      Results come back in submission order regardless of worker count —
      deterministic fan-out. A task that raises has its exception
      re-raised on the caller. *)
  val map : t -> 'a array -> ('a -> 'b) -> 'b array

  (** Stop accepting jobs, drain everything already queued, and join the
      worker domains. Idempotent. *)
  val shutdown : t -> unit
end

(** The process-wide pool, (re)sized to [workers] worker domains. An
    existing pool of another size is drained and replaced — except when
    called from a pool worker (a nested fan-out), which always reuses
    the pool it is running on. *)
val shared_pool : workers:int -> Pool.t

(** Drain and join the shared pool (no-op when none exists). *)
val shutdown_pool : unit -> unit

(** [parallel_map ~jobs tasks f] maps [f] over [tasks] with [jobs]-way
    parallelism on the shared persistent pool ([jobs - 1] workers plus
    the participating caller, so [jobs = 1] is serial on the caller).
    Results come back in submission order regardless of the worker
    count — deterministic fan-out. A task that raises has its exception
    re-raised on the coordinator. The sweep engine runs its missing
    cells through this; the fuzz driver reuses it for per-seed oracle
    runs. *)
val parallel_map : jobs:int -> 'a array -> ('a -> 'b) -> 'b array

(** [prefetch ?jobs cfg cells] computes every cell not already cached
    over [jobs] worker domains (default {!jobs}; [0] means {!auto_jobs}):
    it prepares the unique missing cells in parallel, groups them by
    machine input in submission order, simulates each input the memo
    lacks once in parallel, and merges in submission order — so output
    and counts are identical for any [jobs]. On return every cell is a
    cache hit. Figures call this up front so their row builders never
    simulate serially. *)
val prefetch : ?jobs:int -> Exp_config.t -> cell list -> unit

(** [run_batch ?jobs cfg cells] — {!prefetch} then the runs, in order. *)
val run_batch :
  ?jobs:int -> Exp_config.t -> cell list -> Regmutex.Outcome.t list

(** Default worker-domain count for {!prefetch}. [set_jobs 0] (or any
    non-positive value) selects {!auto_jobs}. The default is 1: serial,
    exactly the behaviour of the pre-parallel engine. *)
val set_jobs : int -> unit

val jobs : unit -> int

(** Event-driven cycle skipping for every simulation the engine launches
    (default [true]). Semantics-preserving — results, fingerprints and
    cache keys are identical either way, so flipping it never invalidates
    the store; [set_fast_forward false] is the brute-force reference mode
    for the equivalence suite and the bench harness. *)
val set_fast_forward : bool -> unit

val fast_forward : unit -> bool

(** [Domain.recommended_domain_count () - 1] workers (at least 1), leaving
    one core for the coordinator. *)
val auto_jobs : unit -> int

(** Enable ([Some dir], conventionally ["_results"]) or disable ([None],
    the default) the persistent on-disk store. *)
val set_cache_dir : string option -> unit

val cache_dir : unit -> string option

(** Drop all in-memory cached runs and the machine-input memo (tests use
    this to control sharing). The on-disk store, if enabled, is
    untouched. *)
val clear : unit -> unit

(** Simulate unconditionally, bypassing every cache level (the memo
    included): the uncached reference, with its full statistics. Its
    {!Regmutex.Runner.fingerprint} equals the
    {!Regmutex.Outcome.fingerprint} of {!run} on the same cell. Safe on
    any domain. *)
val compute : Exp_config.t -> cell -> Regmutex.Runner.run

(** Number of cells this process computed: misses in the run table and
    the on-disk store. Unchanged by the memo — a cell it serves still
    counts. *)
val simulations : unit -> int

(** Number of [Gpu.run] calls the engine made: the cells among
    {!simulations} whose machine input the memo did not hold, plus the
    {!memo} misses. {!compute} is not counted. *)
val machine_runs : unit -> int

(** Warp-instructions simulated by the cells' machine runs
    ([Stats.instructions] summed over them; {!memo} runs are not
    included). *)
val simulated_instructions : unit -> int

(** Host wall-clock seconds spent in the cells' machine runs, summed over
    the domains that ran them. *)
val simulation_seconds : unit -> float
