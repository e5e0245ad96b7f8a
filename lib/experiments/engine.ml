module Runner = Regmutex.Runner
module Outcome = Regmutex.Outcome
module Technique = Regmutex.Technique
module Arch_config = Gpu_uarch.Arch_config

(* --- worker configuration ------------------------------------------- *)

let auto_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let default_jobs = ref 1

let set_jobs n = default_jobs := if n <= 0 then auto_jobs () else n

let jobs () = !default_jobs

(* Cycle skipping is semantics-preserving (results and cache entries are
   identical either way), so it is a process-wide toggle rather than part
   of the cache key; the bench harness flips it to time both modes. *)
let ff = ref true

let set_fast_forward b = ff := b

let fast_forward () = !ff

(* --- persistent worker pool ------------------------------------------- *)

(* True on any domain currently executing pool jobs: a nested fan-out
   (a pool job that itself calls [parallel_map]) must reuse the pool it
   runs on rather than resize it out from under itself. *)
let on_pool_worker = Domain.DLS.new_key (fun () -> false)

module Pool = struct
  type t = {
    queue : (unit -> unit) Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable stopping : bool;
    mutable domains : unit Domain.t list;
    n_workers : int;
  }

  (* Workers drain the queue before exiting, so [shutdown] never drops
     submitted jobs. *)
  let worker_loop t =
    Domain.DLS.set on_pool_worker true;
    let rec go () =
      Mutex.lock t.mutex;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.nonempty t.mutex
      done;
      if Queue.is_empty t.queue then Mutex.unlock t.mutex
      else begin
        let job = Queue.pop t.queue in
        Mutex.unlock t.mutex;
        (try job () with _ -> ());
        go ()
      end
    in
    go ()

  let create ~workers =
    let workers = max 0 workers in
    let t =
      {
        queue = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        stopping = false;
        domains = [];
        n_workers = workers;
      }
    in
    t.domains <-
      List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  let workers t = t.n_workers

  let submit t job =
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Engine.Pool.submit: pool is shut down"
    end;
    Queue.push job t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  (* Run one queued job on the calling domain; false when the queue is
     empty. The submitting domain participates in its own batches, so a
     0-worker pool is simply the serial engine. *)
  let try_run_one t =
    Mutex.lock t.mutex;
    if Queue.is_empty t.queue then begin
      Mutex.unlock t.mutex;
      false
    end
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      (try job () with _ -> ());
      true
    end

  let map t tasks f =
    let n = Array.length tasks in
    let results = Array.make n None in
    if n > 0 then begin
      let remaining = Atomic.make n in
      let done_m = Mutex.create () in
      let done_c = Condition.create () in
      let run i =
        results.(i) <- Some (try Ok (f tasks.(i)) with e -> Error e);
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock done_m;
          Condition.broadcast done_c;
          Mutex.unlock done_m
        end
      in
      for i = 0 to n - 1 do
        submit t (fun () -> run i)
      done;
      (* Participate: drain queued jobs (possibly other batches') until
         empty, then wait for stragglers running on other domains. *)
      while try_run_one t do () done;
      Mutex.lock done_m;
      while Atomic.get remaining > 0 do
        Condition.wait done_c done_m
      done;
      Mutex.unlock done_m
    end;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> assert false)
      results

  let shutdown t =
    Mutex.lock t.mutex;
    let already = t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if not already then begin
      List.iter Domain.join t.domains;
      t.domains <- [];
      (* A 0-worker pool has nobody else to drain residual jobs. *)
      while try_run_one t do () done
    end
end

(* One process-wide pool, sized on demand: repeated [parallel_map] calls
   reuse the same worker domains instead of paying spawn/join per call. *)
let pool_lock = Mutex.create ()

let the_pool : Pool.t option ref = ref None

let shared_pool ~workers =
  Mutex.lock pool_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pool_lock)
    (fun () ->
      match !the_pool with
      | Some p
        when Pool.workers p = workers || Domain.DLS.get on_pool_worker ->
          (* A nested call from a worker keeps the current pool whatever
             size was asked for — resizing would join our own domain. *)
          p
      | prev ->
          (match prev with Some p -> Pool.shutdown p | None -> ());
          let p = Pool.create ~workers in
          the_pool := Some p;
          p)

let shutdown_pool () =
  Mutex.lock pool_lock;
  let p = !the_pool in
  the_pool := None;
  Mutex.unlock pool_lock;
  match p with Some p -> Pool.shutdown p | None -> ()

(* --- persistent store configuration ---------------------------------- *)

let set_cache_dir dir = Result_store.set_root dir

let cache_dir () = Result_store.root ()

(* --- cells and keys --------------------------------------------------- *)

type cell = {
  arch : Arch_config.t;
  technique : Technique.t;
  spec : Workloads.Spec.t;
  es_override : int option;
  options : Technique.options option;
  variant : string;
}

let cell ?es_override ?options ?(variant = "") ~arch technique spec =
  { arch; technique; spec; es_override; options; variant }

let resolved_options c =
  match c.options with
  | Some o -> (
      match c.es_override with
      | None -> o
      | Some _ -> { o with Technique.es_override = c.es_override })
  | None -> { Technique.default_options with Technique.es_override = c.es_override }

(* Both records are pure data, so their marshalled form is a stable
   fingerprint. It folds every architectural parameter (scheduler kind,
   register-file size, latencies, ...) and every compile option into the
   key — two cells may share an architecture *name* yet differ in the
   record, as the scheduler ablation's variants do. *)
let digest_config arch options =
  Digest.to_hex (Digest.string (Marshal.to_string (arch, options) []))

(* A sweep keys hundreds of cells on a few dozen configurations, so each
   distinct (arch, options) value is digested once per process. The table
   compares structurally; the first value seen stays the digested one. *)
let digests : (Arch_config.t * Technique.options, string) Hashtbl.t =
  Hashtbl.create 16

let digests_lock = Mutex.create ()

let config_digest arch options =
  let k = (arch, options) in
  match Mutex.protect digests_lock (fun () -> Hashtbl.find_opt digests k) with
  | Some d -> d
  | None ->
      let d = digest_config arch options in
      Mutex.protect digests_lock (fun () ->
          match Hashtbl.find_opt digests k with
          | Some first -> first
          | None ->
              Hashtbl.add digests k d;
              d)

let key_of_cell cfg c =
  let options = resolved_options c in
  (* %h prints the float's full precision — "%.3f" would collide two grid
     scales closer than 1e-3 and silently return the wrong cached run. *)
  Printf.sprintf "%s/%s/%s/%s/%h/%s/%s" c.arch.Arch_config.name
    (Technique.name c.technique) c.spec.Workloads.Spec.name
    (match options.Technique.es_override with
    | None -> "auto"
    | Some es -> string_of_int es)
    cfg.Exp_config.grid_scale c.variant
    (String.sub (config_digest c.arch options) 0 12)

let key ?es_override ?options ?variant cfg ~arch technique spec =
  key_of_cell cfg (cell ?es_override ?options ?variant ~arch technique spec)

(* --- in-memory and on-disk caches ------------------------------------ *)

(* The in-memory tables may be touched from any domain that runs cells,
   so accesses go through one mutex each. Computation never happens under
   a lock. All three levels hold a cell's [Outcome.t]: what the figures
   read, and nothing that grows with the grid or the program. *)
let cache : (string, Outcome.t) Hashtbl.t = Hashtbl.create 64

let cache_lock = Mutex.create ()

let with_cache f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let mem_find k = with_cache (fun () -> Hashtbl.find_opt cache k)

let mem_add k o = with_cache (fun () -> Hashtbl.replace cache k o)

let mem_mem k = with_cache (fun () -> Hashtbl.mem cache k)

(* The third level: the outcome of every machine input simulated since
   the last [clear], keyed by the input's marshalled bytes themselves (not
   a digest of them), so a hit always means an equal input. Cells that
   differ in how they were requested but prepare to the same kernel and
   run config share one simulation, each with its own compile-side fields
   ([Outcome.with_compile]). *)
let memo : (string, Outcome.t) Hashtbl.t = Hashtbl.create 64

let memo_lock = Mutex.create ()

let with_memo f =
  Mutex.lock memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_lock) f

let memo_find input = with_memo (fun () -> Hashtbl.find_opt memo input)

(* The first simulation of an input stays the memoised one. *)
let memo_add input outcome =
  with_memo (fun () ->
      match Hashtbl.find_opt memo input with
      | Some first -> first
      | None ->
          Hashtbl.add memo input outcome;
          outcome)

let misses = Atomic.make 0

let simulations () = Atomic.get misses

let runs = Atomic.make 0

let machine_runs () = Atomic.get runs

let clear () =
  with_cache (fun () -> Hashtbl.reset cache);
  with_memo (fun () -> Hashtbl.reset memo)

(* --- execution -------------------------------------------------------- *)

(* The coordinator's result-merge phase; the per-run prepare/simulate
   phases live in [Runner]. Registered before any domain spawns. *)
let merge_phase = Telemetry.Profile.phase "engine.merge"

let compute cfg c =
  let options = resolved_options c in
  let kernel = Exp_config.kernel_of cfg c.spec in
  Runner.execute ~options ~fast_forward:!ff c.arch c.technique kernel

(* A cell's machine input: the prepared technique, the run config, and
   the memo key ([Runner.input_key]; [Runner.prepare] gives the engine's
   configs no trace). *)
type input = {
  prepared : Technique.prepared;
  config : Gpu_sim.Gpu.run_config;
  bytes : string;
}

let prepare cfg c =
  let options = resolved_options c in
  let kernel = Exp_config.kernel_of cfg c.spec in
  let prepared, config =
    Runner.prepare ~options ~fast_forward:!ff c.arch kernel c.technique
  in
  {
    prepared;
    config;
    bytes = Runner.input_key config prepared.Technique.kernel;
  }

(* Simulated warp-instructions and host nanoseconds spent simulating them,
   summed over the machine runs of every domain. *)
let instructions = Atomic.make 0
let simulate_ns = Atomic.make 0

let simulated_instructions () = Atomic.get instructions
let simulation_seconds () = float_of_int (Atomic.get simulate_ns) *. 1e-9

(* One machine run, kept as its outcome: the statistics' per-warp records
   and traces are dropped on the domain that simulated them. *)
let simulate i =
  Atomic.incr runs;
  let t0 = Unix.gettimeofday () in
  let stats = Runner.simulate i.config i.prepared in
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  ignore (Atomic.fetch_and_add simulate_ns ns);
  ignore (Atomic.fetch_and_add instructions stats.Gpu_sim.Stats.instructions);
  Runner.outcome (Runner.of_stats i.config i.prepared stats)

let lookup cfg c =
  let k = key_of_cell cfg c in
  match mem_find k with
  | Some o -> o
  | None -> (
      match Result_store.load k with
      | Some o ->
          mem_add k o;
          o
      | None ->
          Atomic.incr misses;
          let i = prepare cfg c in
          let simulated =
            match memo_find i.bytes with
            | Some o -> o
            | None -> memo_add i.bytes (simulate i)
          in
          let o = Outcome.with_compile i.prepared simulated in
          mem_add k o;
          Result_store.store k o;
          o)

let run ?es_override ?options ?variant cfg ~arch technique spec =
  lookup cfg (cell ?es_override ?options ?variant ~arch technique spec)

(* --- figure runs outside the cell grid -------------------------------- *)

let input_digest config kernel =
  Digest.to_hex (Digest.string (Runner.input_key config kernel))

(* No in-memory layer: each figure reads its entries once per sweep. *)
let memo ~key f =
  match Result_store.load key with
  | Some v -> v
  | None ->
      Atomic.incr runs;
      let v = f () in
      Result_store.store key v;
      v

(* Work-queue fan-out on the shared persistent pool: jobs claim indices
   and write into disjoint slots of the result array, so results come
   back in submission order whatever the worker count. Each task is a
   full self-contained simulation (kernel, memory system, statistics are
   all per-run state). [jobs = 1] is a 0-worker pool: the coordinator
   runs everything itself, exactly the serial engine. *)
let parallel_map ~jobs tasks f =
  let workers = max 0 (min jobs (Array.length tasks) - 1) in
  Pool.map (shared_pool ~workers) tasks f

let prefetch ?jobs:requested cfg cells =
  let jobs =
    match requested with
    | Some n when n > 0 -> n
    | Some _ -> auto_jobs ()
    | None -> !default_jobs
  in
  (* Deduplicate by key and drop every cell either cache layer already
     holds; only genuinely missing cells are prepared. *)
  let queued = Hashtbl.create 16 in
  let pending =
    List.filter_map
      (fun c ->
        let k = key_of_cell cfg c in
        if mem_mem k || Hashtbl.mem queued k then None
        else
          match Result_store.load k with
          | Some o ->
              mem_add k o;
              None
          | None ->
              Hashtbl.replace queued k ();
              Some (k, c))
      cells
  in
  if pending <> [] then begin
    let tasks = Array.of_list pending in
    let inputs = parallel_map ~jobs tasks (fun (_, c) -> prepare cfg c) in
    (* Group by input bytes in submission order: each input the memo
       lacks is simulated once, by one domain. *)
    let batch = Hashtbl.create 16 in
    let fresh =
      Array.fold_left
        (fun acc i ->
          if Hashtbl.mem batch i.bytes then acc
          else begin
            let known = memo_find i.bytes in
            Hashtbl.replace batch i.bytes known;
            if Option.is_none known then i :: acc else acc
          end)
        [] inputs
      |> List.rev |> Array.of_list
    in
    let simulated = parallel_map ~jobs fresh simulate in
    Array.iteri
      (fun j i ->
        Hashtbl.replace batch i.bytes (Some (memo_add i.bytes simulated.(j))))
      fresh;
    let results =
      Array.map
        (fun i ->
          Outcome.with_compile i.prepared
            (Option.get (Hashtbl.find batch i.bytes)))
        inputs
    in
    (* Merge on the coordinator, in submission order: figure output is
       byte-identical whatever the worker count or completion order. *)
    Telemetry.Profile.time merge_phase (fun () ->
        Array.iteri
          (fun i o ->
            let k, _ = tasks.(i) in
            Atomic.incr misses;
            mem_add k o;
            Result_store.store k o)
          results)
  end

let run_batch ?jobs cfg cells =
  prefetch ?jobs cfg cells;
  List.map (lookup cfg) cells
