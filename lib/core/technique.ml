module Storage_cost = Gpu_uarch.Storage_cost
module Energy_model = Gpu_uarch.Energy_model
module Liveness = Gpu_analysis.Liveness
module Facts = Gpu_analysis.Facts
module Kernel = Gpu_sim.Kernel
module Policy = Gpu_sim.Policy
module Stats = Gpu_sim.Stats

type t =
  | Baseline
  | Regmutex
  | Regmutex_paired
  | Owf
  | Rfv
  | Regdem

type options = {
  es_override : int option;
  transform : Transform.options;
  verify : bool;
  simt : bool;
}

let default_options =
  { es_override = None; transform = Transform.default_options; verify = true;
    simt = false }

type prepared = {
  technique : t;
  kernel : Gpu_sim.Kernel.t;
  policy : Gpu_sim.Policy.t;
  choice : Es_heuristic.choice option;
  plan : Transform.plan option;
  regdem : Regdem.plan option;
}

(* The unmodified kernel under static allocation: the baseline, and the
   fallback of every technique with nothing to share. *)
let unshared technique kernel =
  { technique; kernel;
    policy = Policy.Static { regs_per_thread = Kernel.regs_per_thread kernel };
    choice = None; plan = None; regdem = None }

(* RegMutex under either policy, from the shared choice and plan. *)
let prepare_regmutex ~paired options cfg technique kernel compiled =
  match compiled () with
  | None ->
      (* Zero-sized extended set: run the unmodified kernel as baseline. *)
      unshared technique kernel
  | Some (_, _, transformed)
    when paired
         && Kernel.warps_per_cta cfg kernel > 1
         && Checker.acquire_spans_barrier transformed ->
      (* Both partners execute the same acquire, but the pair holds a
         single section: a holder parked at the barrier waits for its
         partner, which is parked at the acquire — a certain deadlock.
         Pairing is not viable for this kernel; run it unshared. *)
      unshared technique kernel
  | Some (choice, plan, _) ->
      let bs = choice.Es_heuristic.bs and es = choice.Es_heuristic.es in
      let policy =
        if paired then Policy.Srp_paired { bs; es; verify = options.verify }
        else Policy.Srp { bs; es; verify = options.verify }
      in
      { technique; policy; choice = Some choice; plan = Some plan; regdem = None;
        kernel = Kernel.with_program kernel plan.Transform.transformed }

let prepare_owf options cfg kernel liveness = function
  | None -> unshared Owf kernel
  | Some choice
    when Gpu_sim.Sm.cta_capacity_for cfg
           ~policy:
             (Policy.Owf
                { bs = choice.Es_heuristic.bs; es = choice.Es_heuristic.es })
           ~kernel
         < 2 * Gpu_sim.Sm.cta_capacity_for cfg ~policy:(unshared Owf kernel).policy
                 ~kernel ->
      (* Jatala et al. share registers to fit more warps. Because the
         non-owner of a pair is frozen from its first shared access until
         the owner exits, a pair contributes roughly one warp of progress
         through shared regions — sharing pays only when it at least
         doubles occupancy; below that the kernel runs unshared. *)
      unshared Owf kernel
  | Some choice ->
      (* Jatala et al. reorder register declarations once so that rarely
         used registers sit above the sharing threshold; the duration
         permutation models exactly that. The program is otherwise
         unmodified — the hardware traps accesses above |Bs|. *)
      let prog = kernel.Kernel.program in
      let bs = choice.Es_heuristic.bs and es = choice.Es_heuristic.es in
      let prog =
        if options.transform.Transform.permute then
          Compaction.permute prog (Compaction.pressure_ranking ~bs prog liveness)
        else prog
      in
      { (unshared Owf kernel) with
        kernel = Kernel.with_program kernel prog;
        policy = Policy.Owf { bs; es };
        choice = Some choice }

let prepare_regdem options cfg facts kernel =
  let widen = options.transform.Transform.widen in
  match (Regdem.choose_facts ~widen facts cfg kernel).Regdem.best with
  | None ->
      (* No demotion strictly beats baseline occupancy: run the unmodified
         kernel under an empty spill window (identical to static). *)
      { (unshared Regdem kernel) with
        policy =
          Policy.Regdem
            { regs_per_thread = Kernel.regs_per_thread kernel; spill_words = 0 } }
  | Some c ->
      let wpc = Kernel.warps_per_cta cfg kernel in
      let plan = Regdem.transform ~widen ~keep:c.Regdem.c_keep ~wpc facts in
      let spill_words = plan.Regdem.spill_words in
      { (unshared Regdem kernel) with
        kernel =
          Kernel.with_shmem_bytes
            (Kernel.with_program kernel plan.Regdem.transformed)
            (Regdem.shmem_bytes_with_window kernel ~spill_words);
        policy = Policy.Regdem { regs_per_thread = plan.Regdem.allocated; spill_words };
        regdem = Some plan }

let preparer ?(options = default_options) cfg facts kernel =
  if Facts.program facts != kernel.Kernel.program then
    invalid_arg "Technique.preparer: facts of another program";
  let liveness () = Facts.liveness ~widen:options.transform.Transform.widen facts in
  (* The |Es| split RegMutex and OWF share; both RegMutex policies get the
     one compile the facts keep for it. *)
  let choice =
    lazy
      (let demand = Kernel.demand kernel in
       let min_bs = Liveness.live_at_barriers kernel.Kernel.program (liveness ()) in
       match options.es_override with
       | Some es -> Es_heuristic.with_es cfg ~demand ~min_bs ~es
       | None -> Es_heuristic.choose cfg ~demand ~min_bs ())
  in
  let compiled () =
    Option.map
      (fun (c : Es_heuristic.choice) ->
        let plan, transformed =
          Transform.compile ~options:options.transform ~bs:c.bs ~es:c.es facts
        in
        (c, plan, transformed))
      (Lazy.force choice)
  in
  function
  | Baseline -> unshared Baseline kernel
  | (Regmutex | Regmutex_paired) as t ->
      prepare_regmutex ~paired:(t = Regmutex_paired) options cfg t kernel compiled
  | Owf -> prepare_owf options cfg kernel (liveness ()) (Lazy.force choice)
  | Rfv ->
      let liveness = liveness () in
      { (unshared Rfv kernel) with
        policy =
          Policy.Rfv
            { live = Liveness.profile liveness;
              max_live = Liveness.max_pressure liveness } }
  | Regdem -> prepare_regdem options cfg facts kernel

let prepare ?options cfg technique kernel =
  preparer ?options cfg (Facts.of_program kernel.Kernel.program) kernel technique

let name = function
  | Baseline -> "baseline"
  | Regmutex -> "regmutex"
  | Regmutex_paired -> "regmutex-paired"
  | Owf -> "owf"
  | Rfv -> "rfv"
  | Regdem -> "regdem"

let all = [ Baseline; Regmutex; Regmutex_paired; Owf; Rfv; Regdem ]

let of_name s =
  match String.lowercase_ascii s with
  | "baseline" -> Some Baseline
  | "regmutex" -> Some Regmutex
  | "paired" | "regmutex-paired" -> Some Regmutex_paired
  | "owf" -> Some Owf
  | "rfv" -> Some Rfv
  | "regdem" -> Some Regdem
  | _ -> None

(* Total, compiler-enforced mapping into the storage-cost accounting: a
   new [Technique.t] constructor fails to compile here until its hardware
   cost is classified, which is exactly the drift this function exists to
   prevent. *)
let to_storage = function
  | Baseline -> Storage_cost.Baseline
  | Regmutex -> Storage_cost.Regmutex_default
  | Regmutex_paired -> Storage_cost.Regmutex_paired
  | Owf -> Storage_cost.Owf
  | Rfv -> Storage_cost.Rfv
  | Regdem -> Storage_cost.Regdem

let storage_bits cfg t = (Storage_cost.bits cfg (to_storage t)).Storage_cost.total_bits

let energy_counts cfg t (stats : Stats.counters) =
  {
    Energy_model.rf_reads = stats.Stats.rf_reads;
    rf_writes = stats.Stats.rf_writes;
    shared_reads = stats.Stats.shared_reads;
    shared_writes = stats.Stats.shared_writes;
    fill_loads = stats.Stats.fill_loads;
    spill_stores = stats.Stats.spill_stores;
    (* RFV routes every register access through the renaming table. *)
    rename_accesses =
      (match t with
      | Rfv -> stats.Stats.rf_reads + stats.Stats.rf_writes
      | Baseline | Regmutex | Regmutex_paired | Owf | Regdem -> 0);
    (* RegMutex-family bitmask/LUT activity; the counters are zero for
       techniques that execute no acquire/release. *)
    track_updates = stats.Stats.acquire_execs + stats.Stats.release_execs;
    cycles = stats.Stats.cycles;
    storage_bits = storage_bits cfg t;
  }

let energy ?constants cfg t stats =
  Energy_model.of_counts ?constants (energy_counts cfg t stats)
