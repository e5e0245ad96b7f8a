module Arch_config = Gpu_uarch.Arch_config
module Storage_cost = Gpu_uarch.Storage_cost
module Energy_model = Gpu_uarch.Energy_model
module Liveness = Gpu_analysis.Liveness
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

let static_policy kernel =
  Policy.Static { regs_per_thread = Kernel.regs_per_thread kernel }

let min_bs_of kernel widen =
  let prog = kernel.Kernel.program in
  let liveness = Liveness.analyze ~widen prog in
  Liveness.live_at_barriers prog liveness

let choose_split options cfg kernel =
  let demand = Kernel.demand kernel in
  let min_bs = min_bs_of kernel options.transform.Transform.widen in
  match options.es_override with
  | Some es -> Es_heuristic.with_es cfg ~demand ~min_bs ~es
  | None -> Es_heuristic.choose cfg ~demand ~min_bs ()

let prepare_regmutex ~paired options cfg technique kernel =
  match choose_split options cfg kernel with
  | None ->
      (* Zero-sized extended set: run the unmodified kernel as baseline. *)
      { technique; kernel; policy = static_policy kernel; choice = None;
        plan = None; regdem = None }
  | Some choice ->
      let bs = choice.Es_heuristic.bs and es = choice.Es_heuristic.es in
      let plan =
        Transform.apply ~options:options.transform ~bs ~es kernel.Kernel.program
      in
      let warps_per_cta =
        (kernel.Kernel.cta_threads + cfg.Arch_config.warp_size - 1)
        / cfg.Arch_config.warp_size
      in
      if
        paired && warps_per_cta > 1
        && Checker.acquire_spans_barrier plan.Transform.transformed
      then
        (* Both partners execute the same acquire, but the pair holds a
           single section: a holder parked at the barrier waits for its
           partner, which is parked at the acquire — a certain deadlock.
           Pairing is not viable for this kernel; run it unshared. *)
        { technique; kernel; policy = static_policy kernel; choice = None;
          plan = None; regdem = None }
      else
        let kernel = Kernel.with_program kernel plan.Transform.transformed in
        let policy =
          if paired then Policy.Srp_paired { bs; es; verify = options.verify }
          else Policy.Srp { bs; es; verify = options.verify }
        in
        { technique; kernel; policy; choice = Some choice; plan = Some plan;
          regdem = None }

let prepare_owf options cfg kernel =
  let fallback () =
    { technique = Owf; kernel; policy = static_policy kernel; choice = None;
      plan = None; regdem = None }
  in
  match choose_split options cfg kernel with
  | None -> fallback ()
  | Some choice
    when Gpu_sim.Sm.cta_capacity_for cfg
           ~policy:
             (Policy.Owf
                { bs = choice.Es_heuristic.bs; es = choice.Es_heuristic.es })
           ~kernel
         < 2 * Gpu_sim.Sm.cta_capacity_for cfg ~policy:(static_policy kernel) ~kernel ->
      (* Jatala et al. share registers to fit more warps. Because the
         non-owner of a pair is frozen from its first shared access until
         the owner exits, a pair contributes roughly one warp of progress
         through shared regions — sharing pays only when it at least
         doubles occupancy; below that the kernel runs unshared. *)
      fallback ()
  | Some choice ->
      (* Jatala et al. reorder register declarations once so that rarely
         used registers sit above the sharing threshold; the duration
         permutation models exactly that. The program is otherwise
         unmodified — the hardware traps accesses above |Bs|. *)
      let prog = kernel.Kernel.program in
      let liveness =
        Liveness.analyze ~widen:options.transform.Transform.widen prog
      in
      let bs = choice.Es_heuristic.bs and es = choice.Es_heuristic.es in
      let prog =
        if options.transform.Transform.permute then
          Compaction.permute prog (Compaction.pressure_ranking ~bs prog liveness)
        else prog
      in
      let kernel = Kernel.with_program kernel prog in
      { technique = Owf; kernel; policy = Policy.Owf { bs; es }; choice = Some choice;
        plan = None; regdem = None }

let prepare_rfv options kernel =
  let prog = kernel.Kernel.program in
  let liveness = Liveness.analyze ~widen:options.transform.Transform.widen prog in
  let live = Liveness.profile liveness in
  let max_live = Liveness.max_pressure liveness in
  { technique = Rfv; kernel; policy = Policy.Rfv { live; max_live }; choice = None;
    plan = None; regdem = None }

let prepare_regdem options cfg kernel =
  let widen = options.transform.Transform.widen in
  let fallback () =
    (* No demotion strictly beats baseline occupancy: run the unmodified
       kernel under an empty spill window (identical to static). *)
    { technique = Regdem; kernel;
      policy =
        Policy.Regdem
          { regs_per_thread = Kernel.regs_per_thread kernel; spill_words = 0 };
      choice = None; plan = None; regdem = None }
  in
  match (Regdem.choose ~widen cfg kernel).Regdem.best with
  | None -> fallback ()
  | Some c ->
      let wpc = Kernel.warps_per_cta cfg kernel in
      let plan =
        Regdem.transform ~widen ~keep:c.Regdem.c_keep ~wpc
          kernel.Kernel.program
      in
      let shmem =
        Regdem.shmem_bytes_with_window kernel
          ~spill_words:plan.Regdem.spill_words
      in
      let kernel' =
        Kernel.with_shmem_bytes
          (Kernel.with_program kernel plan.Regdem.transformed)
          shmem
      in
      { technique = Regdem; kernel = kernel';
        policy =
          Policy.Regdem
            { regs_per_thread = plan.Regdem.allocated;
              spill_words = plan.Regdem.spill_words };
        choice = None; plan = None; regdem = Some plan }

let prepare ?(options = default_options) cfg technique kernel =
  match technique with
  | Baseline ->
      { technique; kernel; policy = static_policy kernel; choice = None;
        plan = None; regdem = None }
  | Regmutex -> prepare_regmutex ~paired:false options cfg technique kernel
  | Regmutex_paired -> prepare_regmutex ~paired:true options cfg technique kernel
  | Owf -> prepare_owf options cfg kernel
  | Rfv -> prepare_rfv options kernel
  | Regdem -> prepare_regdem options cfg kernel

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

let energy_counts cfg t (stats : Stats.t) =
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
