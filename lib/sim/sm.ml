module Bits = Gpu_isa.Bits
module Instr = Gpu_isa.Instr
module Program = Gpu_isa.Program
module Regset = Gpu_isa.Regset
module Arch_config = Gpu_uarch.Arch_config
module Srp = Gpu_uarch.Srp
module Srp_paired = Gpu_uarch.Srp_paired
module Soa = Warp.Soa
module Reconv = Gpu_analysis.Reconv

exception Verification_failure of string

type cta_state = {
  cta_slot : int;
  global_cta : int;
  n_warps : int;
  mutable arrived : int;   (* warps waiting at the barrier *)
  mutable running : int;   (* warps not yet Done *)
  shared : int array;      (* shared-memory words *)
}

type pstate =
  | Ps_static
  | Ps_srp of Srp.t
  | Ps_paired of Srp_paired.t
  | Ps_owf
  | Ps_rfv of { mutable used : int; capacity : int }

(* What a pc's residual issue check ([check_ready]) can depend on. *)
type issue_class =
  | Plain     (* nothing: the check can only answer [Can_issue] *)
  | Global    (* a free memory slot, and nothing else *)
  | Stateful  (* policy state *)
  | Owf_ext   (* stateful until the warp owns its OWF pair's registers *)

type t = {
  cfg : Arch_config.t;
  sm_id : int;
  kernel : Kernel.t;
  policy : Policy.t;
  memory : Memory.t;
  mem_sys : Mem_system.t;
  stats : Stats.t;
  instrs : Instr.t array;
  warps_per_cta : int;
  cta_capacity : int;
  srp_sections : int;
  ctas : cta_state option array;
  (* Hot per-warp state lives structure-of-arrays: the schedulers and the
     issue stage index packed int arrays by warp slot instead of chasing
     one boxed record per warp. *)
  soa : Soa.t;
  (* One execution context per warp slot, built once and rebound (ctaid,
     shared memory) at each CTA launch — the issue path allocates no
     context or closures. *)
  ctxs : Exec.ctx array;
  schedulers : Scheduler.t array;
  own : int array;  (* per scheduler: the slots it owns, as a mask *)
  (* Issue state, the simulator's version of the issue stage's warp-state
     bitmasks (RegMutex §III-B1): every resident warp that has not exited
     sits in exactly one of three slot masks, re-filed by [place] whenever
     its status or [ready_at] changes — never rescanned per cycle.
     - [elig]: [Ready] and [ready_at <= synced] — what the schedulers walk;
     - [pend]: [Ready] but the scoreboard is busy until [ready_at];
     - [at_bar]: parked at a barrier.
     A [pend] warp also sits in wheel bucket [ready_at land 63]; [sync]
     moves the warps due by the current cycle from [pend] to [elig] by
     walking only the buckets of the cycles since the last sync. A warp
     due 64 or more cycles out stays in its bucket for a later lap. *)
  mutable elig : int;
  mutable pend : int;
  mutable at_bar : int;
  wheel : int array;
  mutable synced : int;  (* the cycle [elig]/[pend] are exact for *)
  (* Every [Ready] warp also sits in at most one of two class masks, filed
     from its pc by [place] (see [pc_class]): [plain] when its residual
     check can only answer [Can_issue], [global] when its only condition
     is a free memory slot. The schedulers pass such warps without calling
     the residual check; only the rest ("stateful" warps) run it. *)
  mutable plain : int;
  mutable global : int;
  (* The schedulers' residual check, built once per SM: it reads the
     memory-slot answer and the clock from these fields, so a pick
     allocates no closure. *)
  mutable mem_free : bool;
  mutable now : int;
  mutable can_issue : int -> bool;
  pstate : pstate;
  (* Per-PC precomputation. *)
  latency : int array;           (* result latency for non-global instrs *)
  rfv_live : int array;          (* RFV: physical packs demanded at each pc *)
  def_reg : int array;           (* destination register, -1 none, -2 invalid *)
  rf_reads : int array;          (* register-file read ports used at issue *)
  rf_writes : int array;         (* register-file write ports used at issue *)
  pc_regs : int array array;     (* registers read or written, ascending *)
  top_reg : int array;           (* highest of [pc_regs], -1 when empty; an
                                    extended-set access when >= bs *)
  is_global : bool array;        (* occupies a global-memory slot at issue *)
  is_acquire : bool array;
  reads_laneid : bool array;     (* SIMT: a collapsed warp expands here *)
  decoded : (Exec.ctx -> Exec.outcome) array;
      (* [Exec.decode] of every pc: the warp-uniform interpreter *)
  pc_class : issue_class array;  (* see [class_of] *)
  max_rank : int;
      (* highest [rank_block] value the policy can produce; bounds the
         early exit in [classify_idle] *)
  mutable state_gen : int;
      (* bumped on every launch and issue — the only operations that change
         warp statuses or ages — so derived scans can be memoized *)
  mutable oldest_gen : int;
  mutable oldest_cache : int;
  mutable resident_ctas : int;
  mutable resident_warps : int;
  mutable retired : int;
  mutable launched_this_cycle : int;
  mutable next_age : int;
  record_stores : bool;
  trace_warp0 : bool;
  (* SIMT (per-lane) execution: lane-resolved register values, predication
     and the per-warp reconvergence stack. Timing stays warp-granular —
     only the values (and the lane occupancy statistics) are resolved per
     lane, so a warp-uniform program is bit-identical in both models. A
     warp launched under the full mask runs collapsed on its uniform row
     until it first reads [%laneid]; [lane_resolved] launches every warp
     expanded instead (the differential tests' reference). *)
  simt : bool;
  lane_resolved : bool;
  reconv : int array;       (* per-pc reconvergence table ([||] unless simt) *)
  reconv_sentinel : int;    (* program length: the never-reached top rpc *)
  full_mask : int;          (* (1 lsl warp_size) - 1 when simt, else 0 *)
  corrupt_mask : int;       (* lanes cleared at launch (fuzz self-test) *)
  probe : Probe.t option;
  bs : int;  (* base-set size for SRP/paired/OWF policies; max_int otherwise *)
  es : int;
  verify : bool;
  mapping : Gpu_uarch.Reg_mapping.config;  (* the Figure 6 mapping [verify]
                                              drives every access through *)
}

(* Resident-CTA capacity under the policy's register accounting, combined
   with the shared-memory / thread / CTA-slot / warp-slot limits. *)
let compute_capacity (cfg : Arch_config.t) policy kernel =
  let wpc = Kernel.warps_per_cta cfg kernel in
  let regs_cta = Policy.regs_per_cta cfg policy ~warps_per_cta:wpc in
  let shmem_cta = Arch_config.round_shmem cfg kernel.Kernel.shmem_bytes in
  let cap v per = if per = 0 then max_int else v / per in
  let ctas =
    List.fold_left min cfg.max_ctas
      [ cap cfg.regfile_regs regs_cta;
        cap cfg.shmem_bytes shmem_cta;
        cap cfg.max_threads kernel.Kernel.cta_threads;
        cap cfg.max_warps wpc ]
  in
  (max ctas 0, wpc, regs_cta)

let cta_capacity_for cfg ~policy ~kernel =
  let capacity, _, _ = compute_capacity cfg policy kernel in
  capacity

(* Extended-set sections an SM of [cta_capacity] CTAs (of [wpc] warps and
   [regs_cta] registers each) provides: SRP sections carved from the
   register file's leftover, or one pair per two resident warps under the
   paired and OWF policies. *)
let sections_at (cfg : Arch_config.t) policy ~cta_capacity ~wpc ~regs_cta =
  match policy with
  (* Regdem is static allocation of the reduced register count; the
     spill machinery lives entirely in the program and the execution
     contexts, so it provides no sections. *)
  | Policy.Static _ | Policy.Regdem _ | Policy.Rfv _ -> 0
  | Policy.Srp { es; _ } ->
      let leftover = cfg.regfile_regs - (cta_capacity * regs_cta) in
      if es <= 0 then 0
      else min cfg.max_warps (max 0 (leftover / (es * cfg.warp_size)))
  | Policy.Srp_paired _ ->
      if wpc mod 2 <> 0 then
        invalid_arg "Sm: paired-warps policy requires an even warp count per CTA";
      cta_capacity * wpc / 2
  | Policy.Owf _ ->
      if wpc mod 2 <> 0 then
        invalid_arg "Sm: OWF policy requires an even warp count per CTA";
      cta_capacity * wpc / 2

let srp_sections_for cfg ~policy ~kernel =
  let cta_capacity, wpc, regs_cta = compute_capacity cfg policy kernel in
  sections_at cfg policy ~cta_capacity ~wpc ~regs_cta

(* The register-file sections a policy names: [(bs, es, verify)], with
   [bs = max_int] for the policies that have no base set. *)
let split_of = function
  | Policy.Srp { bs; es; verify } | Policy.Srp_paired { bs; es; verify } ->
      (bs, es, verify)
  | Policy.Owf { bs; es } -> (bs, es, false)
  | Policy.Static _ | Policy.Rfv _ | Policy.Regdem _ -> (max_int, 0, false)

(* A run's fixed SM inputs — architecture, policy, kernel, execution
   model — and the per-pc precomputation, a function of those alone: a
   run builds them once (one pass over the program) and every SM shares
   them. The SMs only read them, and take the inputs from here, so the
   tables cannot disagree with the SM they serve. *)
type tables = {
  tb_cfg : Arch_config.t;
  tb_policy : Policy.t;
  tb_kernel : Kernel.t;
  tb_simt : bool;
  tb_instrs : Instr.t array;
  tb_latency : int array;
  tb_rfv_live : int array;
  tb_def_reg : int array;
  tb_rf_reads : int array;
  tb_rf_writes : int array;
  tb_pc_regs : int array array;
  tb_top_reg : int array;
  tb_is_global : bool array;
  tb_is_acquire : bool array;
  tb_reads_laneid : bool array;
  tb_decoded : (Exec.ctx -> Exec.outcome) array;
  tb_pc_class : issue_class array;
  tb_reconv : int array;
}

let tables ?(simt = false) (cfg : Arch_config.t) ~policy ~kernel =
  let prog = kernel.Kernel.program in
  let n = Program.length prog in
  let instrs = Array.init n (Program.get prog) in
  let bs, _, _ = split_of policy in
  let rfv_live =
    match policy with
    | Policy.Rfv { live; _ } ->
        if Array.length live <> n then
          invalid_arg "Sm.tables: RFV live table length mismatch";
        live
    | Policy.Static _ | Policy.Srp _ | Policy.Srp_paired _ | Policy.Owf _
    | Policy.Regdem _ ->
        Array.make n 0
  in
  let reg = function
    | Instr.Reg _ -> 1
    | Instr.Imm _ | Instr.Special _ | Instr.Param _ -> 0
  in
  let lane = function
    | Instr.Special Instr.Lane_id -> true
    | Instr.Special _ | Instr.Reg _ | Instr.Imm _ | Instr.Param _ -> false
  in
  let latency = Array.make n 0 and def_reg = Array.make n (-1) in
  let rf_reads = Array.make n 0 and rf_writes = Array.make n 0 in
  let pc_regs = Array.make n [||] and top_reg = Array.make n (-1) in
  let is_global = Array.make n false and is_acquire = Array.make n false in
  let reads_laneid = Array.make n false in
  let decoded = Array.make n (fun (_ : Exec.ctx) -> Exec.Stop) in
  let pc_class = Array.make n Plain in
  for pc = 0 to n - 1 do
    let i = instrs.(pc) in
    let lat = Instr.lat_class i in
    latency.(pc) <-
      (match lat with
      | Instr.Lat_alu -> cfg.lat_alu
      | Instr.Lat_complex -> cfg.lat_complex
      | Instr.Lat_shared -> cfg.lat_shared
      | Instr.Lat_global -> cfg.lat_global (* refined at issue via mem_sys *)
      | Instr.Lat_control -> 1);
    (let defs = Instr.defs i in
     def_reg.(pc) <-
       (match Regset.cardinal defs with
       | 0 -> -1
       | 1 -> Regset.min_elt defs
       | _ -> -2);
     (* Register-file port activity, for the energy model: one read per
        register operand (duplicates count — each is a port access), one
        write per defined register. Counted at issue, so the totals are
        identical under fast-forward and brute-force stepping (scheduler
        re-probes such as the RFV peek are cycle-dependent and must not
        contribute). *)
     rf_writes.(pc) <- (if Regset.is_empty defs then 0 else 1));
    (match i with
    | Instr.Bin (_, _, a, b) | Instr.Cmp (_, _, a, b) ->
        rf_reads.(pc) <- reg a + reg b;
        reads_laneid.(pc) <- lane a || lane b
    | Instr.Un (_, _, a) | Instr.Mov (_, a) ->
        rf_reads.(pc) <- reg a;
        reads_laneid.(pc) <- lane a
    | Instr.Mad (_, a, b, c) | Instr.Sel (_, a, b, c) ->
        rf_reads.(pc) <- reg a + reg b + reg c;
        reads_laneid.(pc) <- lane a || lane b || lane c
    | Instr.Load (_, _, addr, _) ->
        rf_reads.(pc) <- reg addr;
        reads_laneid.(pc) <- lane addr
    | Instr.Store (_, addr, v, _) ->
        rf_reads.(pc) <- reg addr + reg v;
        reads_laneid.(pc) <- lane addr || lane v
    | Instr.Jump_if (c, _) | Instr.Jump_ifz (c, _) ->
        rf_reads.(pc) <- reg c;
        reads_laneid.(pc) <- lane c
    | Instr.Jump _ | Instr.Bar | Instr.Release | Instr.Exit -> ()
    | Instr.Acquire -> is_acquire.(pc) <- true);
    let regs = Instr.regs i in
    pc_regs.(pc) <- Array.of_list (Regset.to_list regs);
    if not (Regset.is_empty regs) then top_reg.(pc) <- Regset.max_elt regs;
    is_global.(pc) <- lat = Instr.Lat_global;
    decoded.(pc) <- Exec.decode i;
    (* What the pc's residual check ([check_ready]) can depend on. Only a
       global access waits for a memory slot; only an acquire under SRP or
       paired warps asks the section pool; OWF's extended accesses ask the
       partner until the warp owns its pair's registers; RFV peeks at every
       pc's register demand. *)
    let base = if is_global.(pc) then Global else Plain in
    pc_class.(pc) <-
      (match policy with
      | Policy.Static _ | Policy.Regdem _ -> base
      | Policy.Srp _ | Policy.Srp_paired _ ->
          if is_acquire.(pc) then Stateful else base
      | Policy.Owf _ ->
          if (not is_acquire.(pc)) && top_reg.(pc) >= bs then Owf_ext else base
      | Policy.Rfv _ -> Stateful)
  done;
  {
    tb_cfg = cfg;
    tb_policy = policy;
    tb_kernel = kernel;
    tb_simt = simt;
    tb_instrs = instrs;
    tb_latency = latency;
    tb_rfv_live = rfv_live;
    tb_def_reg = def_reg;
    tb_rf_reads = rf_reads;
    tb_rf_writes = rf_writes;
    tb_pc_regs = pc_regs;
    tb_top_reg = top_reg;
    tb_is_global = is_global;
    tb_is_acquire = is_acquire;
    tb_reads_laneid = reads_laneid;
    tb_decoded = decoded;
    tb_pc_class = pc_class;
    tb_reconv = (if simt then Reconv.table prog else [||]);
  }

(* The SM record without its residual-check closure, which [create]
   installs once the checks below are defined. *)
let make ?telemetry ~corrupt_mask ~lane_resolved tb ~sm_id ~memory
    ~mem_sys ~stats ~record_stores ~trace_warp0 =
  let cfg = tb.tb_cfg and policy = tb.tb_policy and kernel = tb.tb_kernel in
  let simt = tb.tb_simt in
  let cta_capacity, wpc, regs_cta = compute_capacity cfg policy kernel in
  let prog = kernel.Kernel.program in
  let n = Program.length prog in
  let bs, es, verify = split_of policy in
  let srp_sections = sections_at cfg policy ~cta_capacity ~wpc ~regs_cta in
  let pstate =
    match policy with
    | Policy.Static _ | Policy.Regdem _ -> Ps_static
    | Policy.Srp _ ->
        Ps_srp (Srp.create ~n_warps:cfg.max_warps ~sections:srp_sections)
    | Policy.Srp_paired _ ->
        Ps_paired
          (Srp_paired.create ~n_warps:cfg.max_warps ~enabled_pairs:srp_sections)
    | Policy.Owf _ -> Ps_owf
    | Policy.Rfv _ ->
        Ps_rfv { used = 0; capacity = cfg.regfile_regs / cfg.warp_size }
  in
  let n_slots = max (cta_capacity * wpc) 1 in
  (* Warp slots are bits of one native int in the issue masks (and in the
     SRP's warp bitmask). *)
  if n_slots > 62 then
    invalid_arg
      (Printf.sprintf "Sm.create: %d warp slots per SM exceed the limit of 62"
         n_slots);
  let n_regs = max prog.Program.n_regs 1 in
  let lanes = if simt then Some cfg.Arch_config.warp_size else None in
  let soa = Soa.create ?lanes ~n_slots ~n_regs () in
  let spill_words =
    match policy with
    | Policy.Regdem { spill_words; _ } -> spill_words
    | Policy.Static _ | Policy.Srp _ | Policy.Srp_paired _ | Policy.Owf _
    | Policy.Rfv _ ->
        0
  in
  let ctxs =
    Array.init n_slots (fun slot ->
        {
          Exec.regs = soa.Soa.regs.(slot);
          params = kernel.Kernel.params;
          tid = slot mod wpc * cfg.warp_size;
          ctaid = -1;
          ntid = kernel.Kernel.cta_threads;
          nctaid = kernel.Kernel.grid_ctas;
          warp_id = slot mod wpc;
          shared = [||];
          spill_words;
          memory;
          stats;
          record_stores;
          lanes = (if simt then cfg.warp_size else 0);
          n_regs;
          lane_regs = [||];
        })
  in
  let schedulers =
    let kind =
      match cfg.Arch_config.scheduler with
      | Arch_config.Gto -> Scheduler.Gto
      | Arch_config.Lrr -> Scheduler.Lrr
      | Arch_config.Two_level g -> Scheduler.Two_level g
    in
    Array.init cfg.n_schedulers (fun id ->
        Scheduler.create kind ~id ~n_schedulers:cfg.n_schedulers)
  in
  {
    cfg;
    sm_id;
    kernel;
    policy;
    memory;
    mem_sys;
    stats;
    instrs = tb.tb_instrs;
    warps_per_cta = wpc;
    cta_capacity;
    srp_sections;
    ctas = Array.make (max cta_capacity 1) None;
    soa;
    ctxs;
    schedulers;
    own = Array.map (fun sc -> Scheduler.own_mask sc ~n_slots) schedulers;
    elig = 0;
    pend = 0;
    at_bar = 0;
    plain = 0;
    global = 0;
    wheel = Array.make 64 0;
    synced = -1;
    mem_free = false;
    now = 0;
    can_issue = (fun _ -> false);
    pstate;
    latency = tb.tb_latency;
    rfv_live = tb.tb_rfv_live;
    def_reg = tb.tb_def_reg;
    rf_reads = tb.tb_rf_reads;
    rf_writes = tb.tb_rf_writes;
    pc_regs = tb.tb_pc_regs;
    top_reg = tb.tb_top_reg;
    is_global = tb.tb_is_global;
    is_acquire = tb.tb_is_acquire;
    reads_laneid = tb.tb_reads_laneid;
    decoded = tb.tb_decoded;
    pc_class = tb.tb_pc_class;
    max_rank =
      (match pstate with
      | Ps_rfv _ -> 5 (* Blocked_regs *)
      | Ps_srp _ | Ps_paired _ | Ps_owf -> 4 (* Blocked_acquire *)
      | Ps_static -> 3 (* Blocked_mem *));
    state_gen = 0;
    oldest_gen = -1;
    oldest_cache = max_int;
    resident_ctas = 0;
    resident_warps = 0;
    retired = 0;
    launched_this_cycle = -1;
    next_age = 0;
    record_stores;
    trace_warp0;
    simt;
    lane_resolved;
    reconv = tb.tb_reconv;
    reconv_sentinel = n;
    full_mask = (if simt then (1 lsl cfg.warp_size) - 1 else 0);
    corrupt_mask;
    probe =
      Option.map
        (fun sink ->
          Probe.create sink ~sm_id ~n_slots ~n_cta_slots:(max cta_capacity 1)
            ~n_mem_slots:cfg.mem_slots)
        telemetry;
    bs;
    es;
    verify;
    mapping =
      {
        Gpu_uarch.Reg_mapping.bs;
        es;
        srp_offset =
          Gpu_uarch.Reg_mapping.srp_offset_for ~bs ~resident_warps:n_slots;
      };
  }

let cta_capacity t = t.cta_capacity
let srp_sections t = t.srp_sections

let srp_in_use t =
  match t.pstate with
  | Ps_srp srp -> Srp.in_use srp
  | Ps_paired srp -> Srp_paired.in_use srp
  | Ps_static | Ps_owf | Ps_rfv _ -> 0
let resident_ctas t = t.resident_ctas
let resident_warps t = t.resident_warps
let retired_ctas t = t.retired

(* --- issue state ------------------------------------------------------ *)

(* The issue class of a [Ready] warp at [pc]. OWF's extended accesses are
   the one per-warp refinement: once the warp owns its pair's registers
   (which only its own issue grants, and only its exit takes back) they
   check nothing beyond the memory slot. *)
let class_of t ~slot ~pc =
  match t.pc_class.(pc) with
  | (Plain | Global | Stateful) as c -> c
  | Owf_ext ->
      if t.soa.Soa.owns_ext.(slot) = 0 then Stateful
      else if t.is_global.(pc) then Global
      else Plain

(* Re-file [slot] from its status, [ready_at] and issue class. Called
   wherever one of them can change: CTA launch, every pc move ([advance],
   after the scoreboard bound is refreshed; the OWF grant precedes it),
   barrier release and warp exit. The slot is never in [pend] here — only
   an eligible warp issues, and a barrier-parked or freshly launched one
   is not pending — so its wheel bucket needs no clearing. *)
let place t ~slot =
  let soa = t.soa in
  let bit = 1 lsl slot in
  t.elig <- t.elig land lnot bit;
  t.at_bar <- t.at_bar land lnot bit;
  t.plain <- t.plain land lnot bit;
  t.global <- t.global land lnot bit;
  let st = soa.Soa.status.(slot) in
  if st = Soa.st_ready then begin
    (match class_of t ~slot ~pc:soa.Soa.pc.(slot) with
    | Plain -> t.plain <- t.plain lor bit
    | Global -> t.global <- t.global lor bit
    | Stateful | Owf_ext -> ());
    let r = soa.Soa.ready_at.(slot) in
    if r <= t.synced then t.elig <- t.elig lor bit
    else begin
      t.pend <- t.pend lor bit;
      let b = r land 63 in
      t.wheel.(b) <- t.wheel.(b) lor bit
    end
  end
  else if st = Soa.st_barrier then t.at_bar <- t.at_bar lor bit

(* Bring [elig]/[pend] up to [cycle]: walk the wheel buckets of the cycles
   since the last sync (all 64 at most, after a fast-forward jump) and move
   the warps whose scoreboard bound has passed. *)
let sync t ~cycle =
  let from = t.synced in
  if cycle > from then begin
    let ready_at = t.soa.Soa.ready_at in
    let n = if cycle - from > 64 then 64 else cycle - from in
    for c = from + 1 to from + n do
      let b = c land 63 in
      let m = ref t.wheel.(b) in
      while !m <> 0 do
        let s = Bits.lowest !m in
        let bit = !m land (- !m) in
        m := !m lxor bit;
        if ready_at.(s) <= cycle then begin
          t.wheel.(b) <- t.wheel.(b) lxor bit;
          t.pend <- t.pend lxor bit;
          t.elig <- t.elig lor bit
        end
      done
    done;
    t.synced <- cycle
  end

(* --- CTA launch and retirement ------------------------------------- *)

let free_cta_slot t =
  let n = Array.length t.ctas in
  let rec go i =
    if i >= t.cta_capacity || i >= n then None
    else match t.ctas.(i) with None -> Some i | Some _ -> go (i + 1)
  in
  go 0

let rfv_can_admit t =
  match t.pstate with
  | Ps_rfv r -> r.used + (t.warps_per_cta * t.rfv_live.(0)) <= r.capacity
  | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> true

(* OWF owner warps are scheduled before age (priority 0); everything else
   orders by age alone. Keys are maintained at the three points priority
   can change — launch, the silent OWF acquire, and warp exit — so the
   schedulers read them without recomputing. *)
let launch_priority t =
  match t.pstate with Ps_owf -> 1 | Ps_static | Ps_srp _ | Ps_paired _ | Ps_rfv _ -> 0

let try_launch t ~global_cta ~cycle =
  (* The slot scan only happens when a slot is known to exist (occupied
     slots and resident CTAs correspond one to one), so the per-cycle
     no-room answer is one comparison. *)
  if t.launched_this_cycle = cycle || t.resident_ctas >= t.cta_capacity then
    false
  else
    match free_cta_slot t with
    | None -> false
    | Some slot when rfv_can_admit t ->
        let n_warps = t.warps_per_cta in
        let shmem_words = max 1 (t.kernel.Kernel.shmem_bytes / 4) in
        let cta =
          {
            cta_slot = slot;
            global_cta;
            n_warps;
            arrived = 0;
            running = n_warps;
            shared = Array.make shmem_words 0;
          }
        in
        t.ctas.(slot) <- Some cta;
        let soa = t.soa in
        for w = 0 to n_warps - 1 do
          let wslot = (slot * t.warps_per_cta) + w in
          let age = t.next_age in
          Soa.launch soa ~slot:wslot ~cta_slot:slot ~global_cta ~warp_in_cta:w
            ~age;
          if t.simt then
            if t.lane_resolved || t.corrupt_mask <> 0 then
              t.ctxs.(wslot).Exec.lane_regs <-
                Soa.simt_reset soa ~slot:wslot
                  ~mask:(t.full_mask land lnot t.corrupt_mask)
                  ~rpc:t.reconv_sentinel
            else Soa.simt_collapse soa ~slot:wslot ~rpc:t.reconv_sentinel;
          t.next_age <- t.next_age + 1;
          (* OWF: warps pair up within their CTA. *)
          soa.Soa.partner.(wslot) <-
            (if w land 1 = 0 then
               if w + 1 < n_warps then wslot + 1 else -1
             else wslot - 1);
          soa.Soa.key.(wslot) <-
            Scheduler.pack_key ~priority:(launch_priority t) ~age;
          (match t.pstate with
          | Ps_rfv r ->
              soa.Soa.rfv_alloc.(wslot) <- t.rfv_live.(0);
              r.used <- r.used + t.rfv_live.(0)
          | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> ());
          let ctx = t.ctxs.(wslot) in
          ctx.Exec.ctaid <- global_cta;
          ctx.Exec.shared <- cta.shared;
          place t ~slot:wslot
        done;
        t.resident_ctas <- t.resident_ctas + 1;
        t.resident_warps <- t.resident_warps + n_warps;
        t.launched_this_cycle <- cycle;
        t.state_gen <- t.state_gen + 1;
        (match t.probe with
        | Some p ->
            Probe.cta_launch p ~cycle ~cta_slot:slot ~global_cta;
            for w = 0 to n_warps - 1 do
              Probe.warp_start p ~cycle
                ~slot:((slot * t.warps_per_cta) + w)
                ~global_cta
            done
        | None -> ());
        true
    | Some _ -> false

let retire_cta t ~cycle cta =
  (match t.probe with
  | Some p -> Probe.cta_retire p ~cycle ~cta_slot:cta.cta_slot
  | None -> ());
  for w = 0 to cta.n_warps - 1 do
    Soa.retire t.soa ~slot:((cta.cta_slot * t.warps_per_cta) + w)
  done;
  t.ctas.(cta.cta_slot) <- None;
  t.resident_ctas <- t.resident_ctas - 1;
  t.resident_warps <- t.resident_warps - cta.n_warps;
  t.retired <- t.retired + 1;
  t.stats.Stats.ctas_retired <- t.stats.Stats.ctas_retired + 1

(* --- issue eligibility ---------------------------------------------- *)

type block_reason =
  | Can_issue
  | Blocked_deps
  | Blocked_mem
  | Blocked_acquire
  | Blocked_regs
  | Blocked_barrier
  | Blocked_done

(* RFV: the next instruction's demand, given this instruction's outcome.
   Branch conditions are evaluated without side effects. Under SIMT the
   computed next-pc is routed through the reconvergence stack (pure peek
   variants), and a divergent branch executes its fall-through arm next —
   unless the fall-through IS the reconvergence point (a loop exit), in
   which case the suspended taken arm runs immediately. A collapsed warp
   peeks like a warp-uniform one, except at a [%laneid] read: issuing it
   expands the warp, so the peek evaluates that branch per lane. *)
let rfv_peek_next t ~slot instr =
  let pc = t.soa.Soa.pc.(slot) in
  let collapsed = t.simt && Soa.simt_collapsed t.soa ~slot in
  if not t.simt || (collapsed && not t.reads_laneid.(pc)) then
    match instr with
    | Instr.Jump tgt -> tgt
    | Instr.Jump_if (c, tgt) ->
        if Exec.operand t.ctxs.(slot) c <> 0 then tgt else pc + 1
    | Instr.Jump_ifz (c, tgt) ->
        if Exec.operand t.ctxs.(slot) c = 0 then tgt else pc + 1
    | Instr.Exit -> pc
    | _ -> pc + 1
  else
    let soa = t.soa in
    match instr with
    | Instr.Jump tgt -> Soa.simt_peek_next soa ~slot tgt
    | Instr.Jump_if _ | Instr.Jump_ifz _ -> (
        let mask = Soa.simt_active soa ~slot in
        match Exec.branch_masks ~collapsed t.ctxs.(slot) instr ~mask with
        | Some (taken, tgt) ->
            if taken = 0 || tgt = pc + 1 then Soa.simt_peek_next soa ~slot (pc + 1)
            else if taken = mask then Soa.simt_peek_next soa ~slot tgt
            else
              let rpc = t.reconv.(pc) in
              if pc + 1 = rpc then tgt else pc + 1
        | None -> pc + 1)
    | Instr.Exit -> (
        match Soa.simt_peek_exit soa ~slot with Some next -> next | None -> pc)
    | _ -> Soa.simt_peek_next soa ~slot (pc + 1)

(* Forward-progress anchor for RFV: the oldest warp that could actually
   issue (barrier-parked warps are waiting on others and must not anchor
   the override, or a register-starved CTA deadlocks against it). The
   [Ready] warps are exactly [elig lor pend]. The answer depends only on
   statuses and ages, which change solely at launches and issues, so it is
   memoized on [state_gen] — a scheduler scan under register pressure
   probes many candidates per cycle and walks the mask once instead of per
   candidate. *)
let oldest_ready_age t =
  if t.oldest_gen = t.state_gen then t.oldest_cache
  else begin
    let age = t.soa.Soa.age in
    let acc = ref max_int in
    let m = ref (t.elig lor t.pend) in
    while !m <> 0 do
      let slot = Bits.lowest !m in
      m := !m land (!m - 1);
      if age.(slot) < !acc then acc := age.(slot)
    done;
    t.oldest_gen <- t.state_gen;
    t.oldest_cache <- !acc;
    !acc
  end

(* A failed acquire attempt marks the start (or continuation) of a stall
   episode: the flag feeds the first-try statistic, and the transition
   into it is the probe's [acquire-stall] instant. *)
let note_acquire_stall t ~slot ~cycle =
  let soa = t.soa in
  (if soa.Soa.acquire_stalled.(slot) = 0 then
     match t.probe with
     | Some p ->
         Probe.acquire_stall p ~cycle ~slot ~global_cta:soa.Soa.global_cta.(slot)
     | None -> ());
  soa.Soa.acquire_stalled.(slot) <- 1

(* [check_ready] is the issue-eligibility residual for a warp that already
   passed the slot-local prefix (resident, [Ready], scoreboard clear):
   structural memory slots, then policy state. With [~probe:true] the
   answer is computed without side effects; the default (an actual issue
   attempt by the warp's scheduler) records acquire stalls.

   [mem_free] is [Mem_system.slot_free] evaluated once by the caller: a
   scheduler scan (or classification sweep) issues nothing, so the answer
   cannot change between the candidates of one scan. *)
let check_ready ~probe t ~mem_free ~slot ~cycle =
  let soa = t.soa in
  let pc = soa.Soa.pc.(slot) in
  if t.is_global.(pc) && not mem_free then Blocked_mem
  else if t.is_acquire.(pc) then begin
    match t.pstate with
    | Ps_srp srp ->
        if Srp.held srp ~warp:slot >= 0 || Srp.free_sections srp > 0 then
          Can_issue
        else begin
          if not probe then note_acquire_stall t ~slot ~cycle;
          Blocked_acquire
        end
    | Ps_paired srp ->
        if Srp_paired.available srp ~warp:slot then Can_issue
        else begin
          if not probe then note_acquire_stall t ~slot ~cycle;
          Blocked_acquire
        end
    | Ps_static | Ps_owf | Ps_rfv _ -> Can_issue
  end
  else begin
    match t.pstate with
    | Ps_owf when t.top_reg.(pc) >= t.bs && soa.Soa.owns_ext.(slot) = 0 ->
        (* First extended access acquires the pair's registers for the
           rest of the warp's life; blocked while the partner owns them. *)
        (* A partner parked at a barrier cannot finish until this warp
           arrives too; blocking here would deadlock the CTA, so ownership
           is ceded (the one concession the no-in-kernel-release design
           needs to run barrier kernels). *)
        let partner = soa.Soa.partner.(slot) in
        let partner_owns =
          partner >= 0
          && soa.Soa.owns_ext.(partner) = 1
          && soa.Soa.status.(partner) = Soa.st_ready
        in
        if partner_owns then begin
          if not probe then soa.Soa.acquire_stalled.(slot) <- 1;
          Blocked_acquire
        end
        else Can_issue
    | Ps_rfv r ->
        let next = rfv_peek_next t ~slot t.instrs.(pc) in
        let delta = t.rfv_live.(next) - soa.Soa.rfv_alloc.(slot) in
        if
          delta <= 0
          || r.used + delta <= r.capacity
          || soa.Soa.age.(slot) = oldest_ready_age t
        then Can_issue
        else Blocked_regs
    | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> Can_issue
  end

(* [check_warp] answers "can this warp issue right now, and if not, why?"
   for any resident warp — the status/scoreboard prefix plus
   {!check_ready}. Only {!diagnose} calls it: the issue path and the idle
   classification read the prefix off the issue masks. *)
let check_warp ?(probe = false) t ~mem_free ~slot ~cycle =
  let soa = t.soa in
  let st = soa.Soa.status.(slot) in
  if st = Soa.st_done || st = Soa.st_absent then Blocked_done
  else if st = Soa.st_barrier then Blocked_barrier
  else if
    (* [ready_at] is the maintained max over the instruction's registers
       of [reg_ready] (refreshed at every pc move), so the scoreboard
       check is one comparison instead of a register-set scan. *)
    soa.Soa.ready_at.(slot) > cycle
  then Blocked_deps
  else check_ready ~probe t ~mem_free ~slot ~cycle

let create ?telemetry ?(corrupt_mask = 0) ?(lane_resolved = false)
    tables ~sm_id ~memory ~mem_sys ~stats ~record_stores ~trace_warp0 =
  let t =
    make ?telemetry ~corrupt_mask ~lane_resolved tables ~sm_id ~memory
      ~mem_sys ~stats ~record_stores ~trace_warp0
  in
  (* Only stateful warps reach the check (plain and global ones are
     decided off the class masks), so every call is a residual check that
     actually runs. *)
  t.can_issue <-
    (fun slot ->
      stats.Stats.issue_candidates <- stats.Stats.issue_candidates + 1;
      match check_ready ~probe:false t ~mem_free:t.mem_free ~slot ~cycle:t.now with
      | Can_issue -> true
      | Blocked_deps | Blocked_mem | Blocked_acquire | Blocked_regs
      | Blocked_barrier | Blocked_done ->
          false);
  t

(* --- barrier handling ------------------------------------------------ *)

let maybe_release_barrier t ~cycle cta =
  if cta.running > 0 && cta.arrived = cta.running then begin
    cta.arrived <- 0;
    (match t.probe with
    | Some p ->
        Probe.barrier_release p ~cycle ~cta_slot:cta.cta_slot
          ~global_cta:cta.global_cta
    | None -> ());
    let soa = t.soa in
    for w = 0 to cta.n_warps - 1 do
      let slot = (cta.cta_slot * t.warps_per_cta) + w in
      if soa.Soa.status.(slot) = Soa.st_barrier then begin
        soa.Soa.status.(slot) <- Soa.st_ready;
        place t ~slot
      end
    done
  end

(* --- issue ----------------------------------------------------------- *)

(* Called when verification is on and [pc] touches the extended set. *)
let verify_access t ~slot pc =
  let top = t.top_reg.(pc) in
  if top >= t.bs + t.es then
    raise
      (Verification_failure
         (Printf.sprintf "pc %d references r%d beyond |Bs|+|Es| = %d" pc top
            (t.bs + t.es)));
  (* The held section, -1 for none: ints rather than options, so a
     verified issue allocates nothing. *)
  let section =
    match t.pstate with
    | Ps_srp srp -> Srp.held srp ~warp:slot
    | Ps_paired srp ->
        if Srp_paired.holds srp ~warp:slot then Srp_paired.pair_of_warp ~warp:slot
        else -1
    | Ps_static | Ps_owf | Ps_rfv _ -> 0
  in
  (* Drive every referenced register through the Figure 6 two-segment
     mapping: it must produce a valid physical index (and trips exactly
     when the warp holds no section). *)
  let regs = t.pc_regs.(pc) in
  for i = 0 to Array.length regs - 1 do
    let x = regs.(i) in
    let p = Gpu_uarch.Reg_mapping.physical t.mapping ~widx:slot ~section ~x in
    if p < 0 then
      raise
        (Verification_failure
           (Format.asprintf "pc %d, register r%d: %a" pc x
              Gpu_uarch.Reg_mapping.pp_error
              (Gpu_uarch.Reg_mapping.error_of_code p)))
  done

let rfv_move t ~slot ~next_pc =
  match t.pstate with
  | Ps_rfv r ->
      let demand = t.rfv_live.(next_pc) in
      r.used <- r.used + demand - t.soa.Soa.rfv_alloc.(slot);
      t.soa.Soa.rfv_alloc.(slot) <- demand
  | Ps_static | Ps_srp _ | Ps_paired _ | Ps_owf -> ()

(* On a successful release the physical extended set goes back to the SRP
   and may be handed to another warp, so the architected values above [bs]
   cease to exist for this warp. The functional model keeps a full per-warp
   register array, which would silently preserve them; clobbering with a
   poison constant makes any use-after-release (a value the compiler failed
   to compact below the Bs boundary) visible as a store-trace divergence
   instead of a lucky pass. Sound for checker-accepted programs: no
   extended register is live at a release point. *)
let release_poison = 0xDEAD_BEEF

let poison_ext t ~slot =
  let regs = t.soa.Soa.regs.(slot) in
  for r = t.bs to Array.length regs - 1 do
    regs.(r) <- release_poison
  done;
  match t.soa.Soa.simt with
  | Some s when s.Soa.collapsed.(slot) = 0 ->
      let row = s.Soa.lane_regs.(slot) in
      let n = t.soa.Soa.n_regs in
      for lane = 0 to s.Soa.lanes - 1 do
        for r = t.bs to n - 1 do
          row.((lane * n) + r) <- release_poison
        done
      done
  | Some _ | None -> ()

let warp_done t ~cycle ~slot cta =
  let soa = t.soa in
  soa.Soa.status.(slot) <- Soa.st_done;
  place t ~slot;
  Stats.record_warp_done t.stats ~cta:soa.Soa.global_cta.(slot)
    ~warp:soa.Soa.warp_in_cta.(slot) ~instructions:soa.Soa.issued.(slot);
  cta.running <- cta.running - 1;
  (match t.probe with
  | Some p ->
      Probe.hold_end p ~cycle ~slot;
      Probe.warp_close p ~cycle ~slot
  | None -> ());
  (match t.pstate with
  | Ps_srp srp -> (
      match Srp.reset_warp srp ~warp:slot with
      | Some _ -> (
          match t.probe with
          | Some p -> Probe.srp_sample p ~cycle ~in_use:(Srp.in_use srp)
          | None -> ())
      | None -> ())
  | Ps_paired srp ->
      if Srp_paired.reset_warp srp ~warp:slot then (
        match t.probe with
        | Some p -> Probe.srp_sample p ~cycle ~in_use:(Srp_paired.in_use srp)
        | None -> ())
  | Ps_owf -> soa.Soa.owns_ext.(slot) <- 0
  | Ps_rfv r ->
      r.used <- r.used - soa.Soa.rfv_alloc.(slot);
      soa.Soa.rfv_alloc.(slot) <- 0
  | Ps_static -> ());
  soa.Soa.acquired_at.(slot) <- -1;
  if cta.running = 0 then retire_cta t ~cycle cta else maybe_release_barrier t ~cycle cta

let advance t ~slot ~next =
  rfv_move t ~slot ~next_pc:next;
  t.soa.Soa.pc.(slot) <- next;
  Soa.refresh_ready_at t.soa ~slot ~touched:t.pc_regs.(next);
  place t ~slot

let mem_sample t ~cycle ~completion =
  match t.probe with
  | Some p -> Probe.mem_issue p ~cycle ~completion
  | None -> ()

let granted t ~cycle ~slot ~section ~in_use =
  t.soa.Soa.acquired_at.(slot) <- cycle;
  match t.probe with
  | Some p ->
      Probe.hold_begin p ~cycle ~slot ~section;
      Probe.srp_sample p ~cycle ~in_use
  | None -> ()

let released t ~cycle ~slot ~in_use =
  t.soa.Soa.acquired_at.(slot) <- -1;
  (match t.probe with
  | Some p ->
      Probe.hold_end p ~cycle ~slot;
      Probe.srp_sample p ~cycle ~in_use
  | None -> ());
  t.stats.Stats.release_execs <- t.stats.Stats.release_execs + 1;
  poison_ext t ~slot

let multi_def_error t ~slot ~pc =
  let section_state =
    match t.pstate with
    | Ps_srp srp ->
        Printf.sprintf "srp: holds=%s, %d/%d sections in use"
          (match Srp.holds srp ~warp:slot with
          | Some s -> string_of_int s
          | None -> "-")
          (Srp.in_use srp) (Srp.n_sections srp)
    | Ps_paired srp ->
        Printf.sprintf "paired: holds=%b, %d/%d pairs in use"
          (Srp_paired.holds srp ~warp:slot)
          (Srp_paired.in_use srp) (Srp_paired.n_pairs srp)
    | Ps_owf -> Printf.sprintf "owf: owns_ext=%d" t.soa.Soa.owns_ext.(slot)
    | Ps_rfv r -> Printf.sprintf "rfv: %d/%d packs used" r.used r.capacity
    | Ps_static -> "static"
  in
  invalid_arg
    (Printf.sprintf
       "Sm.issue: instruction with multiple destination registers — SM %d, \
        CTA %d, warp %d (slot %d), pc %d: %s [%s]"
       t.sm_id t.soa.Soa.global_cta.(slot) t.soa.Soa.warp_in_cta.(slot) slot pc
       (Instr.to_string t.instrs.(pc))
       section_state)

(* Route a computed next-pc through the reconvergence stack (pops when it
   reaches the current reconvergence point); identity for warp-uniform and
   collapsed warps, whose stack is empty. *)
let route t ~slot ~lanes next =
  if lanes then Soa.simt_next t.soa ~slot next else next

(* A collapsed warp about to read [%laneid] becomes lane-resolved: its
   uniform row is broadcast into every lane, which is exact because no
   instruction it ran so far could tell the lanes apart. *)
let expand t ~slot =
  t.ctxs.(slot).Exec.lane_regs <-
    Soa.simt_expand t.soa ~slot ~rpc:t.reconv_sentinel;
  t.stats.Stats.lane_expansions <- t.stats.Stats.lane_expansions + 1

(* Bookkeeping common to every executed issue: the instruction count and
   the destination's scoreboard entry. *)
let account_issue t ~slot ~cycle ~pc ~completion =
  let soa = t.soa in
  t.stats.Stats.instructions <- t.stats.Stats.instructions + 1;
  soa.Soa.issued.(slot) <- soa.Soa.issued.(slot) + 1;
  (* Timing: set the destination's ready cycle. *)
  let d = t.def_reg.(pc) in
  if d >= 0 then begin
    let ready =
      if t.is_global.(pc) then begin
        mem_sample t ~cycle ~completion;
        completion
      end
      else cycle + t.latency.(pc)
    in
    soa.Soa.reg_ready.(slot).(d) <- ready
  end
  else if d = -1 then begin
    (* Global stores still consume a memory slot. *)
    if t.is_global.(pc) then mem_sample t ~cycle ~completion
  end
  else multi_def_error t ~slot ~pc

let cta_of t ~slot =
  match t.ctas.(t.soa.Soa.cta_slot.(slot)) with
  | Some c -> c
  | None -> invalid_arg "Sm.issue: orphan warp"

(* Act on a warp-level control outcome: move the pc (through the
   reconvergence stack when [lanes]), park at a barrier, exit, or run the
   policy side of an acquire/release. *)
let follow t ~slot ~cycle ~pc ~lanes outcome =
  let soa = t.soa in
  match outcome with
  | Exec.Next -> advance t ~slot ~next:(route t ~slot ~lanes (pc + 1))
  | Exec.Goto tgt -> advance t ~slot ~next:(route t ~slot ~lanes tgt)
  | Exec.Stop ->
      if lanes then (
        match Soa.simt_exit soa ~slot with
        | None -> warp_done t ~cycle ~slot (cta_of t ~slot)
        | Some next -> advance t ~slot ~next)
      else warp_done t ~cycle ~slot (cta_of t ~slot)
  | Exec.Sync ->
      let cta = cta_of t ~slot in
      soa.Soa.status.(slot) <- Soa.st_barrier;
      advance t ~slot ~next:(route t ~slot ~lanes (pc + 1));
      cta.arrived <- cta.arrived + 1;
      (match t.probe with
      | Some p ->
          Probe.barrier_arrive p ~cycle ~slot ~global_cta:soa.Soa.global_cta.(slot)
      | None -> ());
      maybe_release_barrier t ~cycle cta
  | Exec.Acq -> (
      let grant =
        match t.pstate with
        | Ps_srp srp -> (
            match Srp.acquire srp ~warp:slot with
            | Srp.Granted s ->
                granted t ~cycle ~slot ~section:s ~in_use:(Srp.in_use srp);
                true
            | Srp.Already_held _ -> true
            | Srp.Stall -> false)
        | Ps_paired srp -> (
            match Srp_paired.acquire srp ~warp:slot with
            | Srp_paired.Granted ->
                granted t ~cycle ~slot
                  ~section:(Srp_paired.pair_of_warp ~warp:slot)
                  ~in_use:(Srp_paired.in_use srp);
                true
            | Srp_paired.Already_held -> true
            | Srp_paired.Stall -> false)
        | Ps_static | Ps_owf | Ps_rfv _ -> true
      in
      match grant with
      | true ->
          t.stats.Stats.acquire_execs <- t.stats.Stats.acquire_execs + 1;
          if soa.Soa.acquire_stalled.(slot) = 0 then
            t.stats.Stats.acquire_first_try <- t.stats.Stats.acquire_first_try + 1;
          soa.Soa.acquire_stalled.(slot) <- 0;
          advance t ~slot ~next:(route t ~slot ~lanes (pc + 1))
      | false ->
          (* Lost a same-cycle race for the last section; retry later. *)
          soa.Soa.acquire_stalled.(slot) <- 1)
  | Exec.Rel ->
      (match t.pstate with
      | Ps_srp srp -> (
          match Srp.release srp ~warp:slot with
          | Srp.Released _ -> released t ~cycle ~slot ~in_use:(Srp.in_use srp)
          | Srp.Not_held -> ())
      | Ps_paired srp -> (
          match Srp_paired.release srp ~warp:slot with
          | Srp_paired.Released ->
              released t ~cycle ~slot ~in_use:(Srp_paired.in_use srp)
          | Srp_paired.Not_held -> ())
      | Ps_static | Ps_owf | Ps_rfv _ -> ());
      advance t ~slot ~next:(route t ~slot ~lanes (pc + 1))

(* [issue] executes the warp's current instruction; returns [false] when a
   global access found every memory slot busy at the claim stage (the warp
   is re-stalled untouched and retries when a slot frees — structured
   back-pressure instead of a crash). *)
let issue t ~slot ~cycle =
  let soa = t.soa in
  let pc = soa.Soa.pc.(slot) in
  if t.verify && t.top_reg.(pc) >= t.bs then verify_access t ~slot pc;
  (* Global accesses claim their memory slot before any architectural
     state changes, so a refusal leaves nothing to undo. The completion
     cycle depends only on the clock and DRAM horizon, never on this
     instruction's execution. *)
  let completion =
    if not t.is_global.(pc) then 0
    else Mem_system.issue_global t.mem_sys ~sm:t.sm_id ~cycle
  in
  if completion < 0 then false
  else begin
    t.state_gen <- t.state_gen + 1;
    t.stats.Stats.rf_reads <- t.stats.Stats.rf_reads + t.rf_reads.(pc);
    t.stats.Stats.rf_writes <- t.stats.Stats.rf_writes + t.rf_writes.(pc);
    (* OWF: silent one-time acquire at the first extended access. *)
    (match t.pstate with
    | Ps_owf when t.top_reg.(pc) >= t.bs && soa.Soa.owns_ext.(slot) = 0 ->
        soa.Soa.owns_ext.(slot) <- 1;
        soa.Soa.acquired_at.(slot) <- cycle;
        soa.Soa.key.(slot) <-
          Scheduler.pack_key ~priority:0 ~age:soa.Soa.age.(slot);
        (match t.probe with
        | Some p -> Probe.hold_begin p ~cycle ~slot ~section:(slot / 2)
        | None -> ());
        t.stats.Stats.acquire_execs <- t.stats.Stats.acquire_execs + 1;
        if soa.Soa.acquire_stalled.(slot) = 0 then
          t.stats.Stats.acquire_first_try <- t.stats.Stats.acquire_first_try + 1;
        soa.Soa.acquire_stalled.(slot) <- 0
    | Ps_owf | Ps_static | Ps_srp _ | Ps_paired _ | Ps_rfv _ -> ());
    if
      t.trace_warp0
      && soa.Soa.global_cta.(slot) = 0
      && soa.Soa.warp_in_cta.(slot) = 0
    then t.stats.Stats.pc_trace <- pc :: t.stats.Stats.pc_trace;
    (* Execute: per-lane under the active mask for an expanded SIMT warp,
       through the pc's decoded closure otherwise (including a collapsed
       SIMT warp, all of whose lanes are active and equal). Lane-occupancy
       statistics are kept with the same convention everywhere (every
       uniform issue is a full warp), so warp-uniform programs report
       identical totals. *)
    if t.simt && t.reads_laneid.(pc) && Soa.simt_collapsed soa ~slot then
      expand t ~slot;
    if t.simt && not (Soa.simt_collapsed soa ~slot) then begin
      let mask = Soa.simt_active soa ~slot in
      let on = Bits.popcount mask in
      t.stats.Stats.active_lane_cycles <- t.stats.Stats.active_lane_cycles + on;
      t.stats.Stats.predicated_lane_cycles <-
        t.stats.Stats.predicated_lane_cycles + (t.cfg.warp_size - on);
      let lout = Exec.step_simt t.ctxs.(slot) t.instrs.(pc) ~mask in
      account_issue t ~slot ~cycle ~pc ~completion;
      match lout with
      | Exec.L_diverge { taken; tgt } ->
          (* Both arms land on pc+1 when the target is the fall-through:
             no divergence to track. Otherwise suspend the continuation and
             the taken arm and run the fall-through arm first (routing pops
             the taken arm immediately when the branch is a loop exit). *)
          if tgt = pc + 1 then
            advance t ~slot ~next:(route t ~slot ~lanes:true (pc + 1))
          else begin
            t.stats.Stats.divergent_branches <- t.stats.Stats.divergent_branches + 1;
            Soa.simt_diverge soa ~slot ~tgt ~taken ~rpc:t.reconv.(pc);
            advance t ~slot ~next:(Soa.simt_next soa ~slot (pc + 1))
          end
      | Exec.L_uniform outcome -> follow t ~slot ~cycle ~pc ~lanes:true outcome
    end
    else begin
      t.stats.Stats.active_lane_cycles <-
        t.stats.Stats.active_lane_cycles + t.cfg.warp_size;
      let outcome = t.decoded.(pc) t.ctxs.(slot) in
      account_issue t ~slot ~cycle ~pc ~completion;
      follow t ~slot ~cycle ~pc ~lanes:false outcome
    end;
    true
  end

(* --- per-cycle step --------------------------------------------------- *)

let rank_block = function
  | Blocked_regs -> 5
  | Blocked_acquire -> 4
  | Blocked_mem -> 3
  | Blocked_deps -> 2
  | Blocked_barrier -> 1
  | Can_issue | Blocked_done -> 0

let stall_reason_of_block = function
  | Can_issue | Blocked_done -> Stats.Stall_empty
  | Blocked_deps -> Stats.Stall_deps
  | Blocked_mem -> Stats.Stall_mem_slot
  | Blocked_acquire -> Stats.Stall_acquire
  | Blocked_regs -> Stats.Stall_regs
  | Blocked_barrier -> Stats.Stall_barrier

(* The idle classification and the min-wakeup summary are read off the
   issue masks: only the eligible stateful warps need the residual check.
   An eligible plain warp can issue; an eligible global warp can issue
   when a memory slot is free and is a memory stall otherwise; a
   non-empty [pend] is a scoreboard stall ending at its earliest
   [ready_at], a non-empty [at_bar] a barrier stall. So the cost is
   O(eligible stateful warps), plus O(pending warps) for the wakeup bound.
   The blockage reported is the highest-ranked one among all warps.
   Scoreboard stalls end at the warp's [ready_at]; structural memory
   stalls end when the SM's earliest slot completes; acquire,
   RFV-register and barrier stalls only end through another warp's issue,
   so while the whole GPU is idle they never end — they contribute no
   wakeup bound. Probing changes no warp state; the residual checks that
   run count as issue candidates. *)
let idle_summary t ~cycle =
  sync t ~cycle;
  let best = ref Blocked_done in
  let wake = ref max_int in
  let mem_free = Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle in
  let global = t.elig land t.global in
  if global <> 0 && not mem_free then begin
    best := Blocked_mem;
    wake := Mem_system.next_completion t.mem_sys ~sm:t.sm_id
  end;
  (* A warp that can issue bounds the wakeup by the next cycle, below any
     memory completion (no slot is free at [cycle]). *)
  if t.elig land t.plain <> 0 || (global <> 0 && mem_free) then wake := cycle + 1;
  let m = ref (t.elig land lnot (t.plain lor t.global)) in
  while !m <> 0 do
    let slot = Bits.lowest !m in
    m := !m land (!m - 1);
    t.stats.Stats.issue_candidates <- t.stats.Stats.issue_candidates + 1;
    let reason = check_ready ~probe:true t ~mem_free ~slot ~cycle in
    if rank_block reason > rank_block !best then best := reason;
    match reason with
    | Blocked_mem ->
        let c = Mem_system.next_completion t.mem_sys ~sm:t.sm_id in
        if c < !wake then wake := c
    | Can_issue -> if cycle + 1 < !wake then wake := cycle + 1
    | Blocked_deps | Blocked_acquire | Blocked_regs | Blocked_barrier
    | Blocked_done ->
        ()
  done;
  if t.pend <> 0 then begin
    if rank_block Blocked_deps > rank_block !best then best := Blocked_deps;
    let ready_at = t.soa.Soa.ready_at in
    let m = ref t.pend in
    while !m <> 0 do
      let slot = Bits.lowest !m in
      m := !m land (!m - 1);
      if ready_at.(slot) < !wake then wake := ready_at.(slot)
    done
  end;
  if t.at_bar <> 0 && rank_block Blocked_barrier > rank_block !best then
    best := Blocked_barrier;
  (stall_reason_of_block !best, !wake)

(* Per-cycle idle attribution: only the most specific blockage is needed,
   not the wakeup bound. Eligible plain and global warps rank off the
   class masks ([Can_issue], or [Blocked_mem] when no memory slot is
   free). The ranking is bounded by the policy ([Blocked_regs] only under
   RFV, [Blocked_acquire] only under SRP/paired/OWF), so the walk over the
   eligible stateful warps stops as soon as the policy's top rank is
   found; the pending and barrier masks rank below every residual
   blockage. Runs on every cycle where some scheduler finds nothing to
   issue; [count] charges the residual checks run to the
   [issue_candidates] work counter (the simulator's own classifications
   do, an outside probe does not). *)
let classify ~count t ~cycle =
  sync t ~cycle;
  let best = ref Blocked_done in
  let best_rank = ref 0 in
  let mem_free = Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle in
  if (not mem_free) && t.elig land t.global <> 0 then begin
    best := Blocked_mem;
    best_rank := rank_block Blocked_mem
  end;
  let m = ref (t.elig land lnot (t.plain lor t.global)) in
  while !m <> 0 && !best_rank < t.max_rank do
    let slot = Bits.lowest !m in
    m := !m land (!m - 1);
    if count then
      t.stats.Stats.issue_candidates <- t.stats.Stats.issue_candidates + 1;
    let reason = check_ready ~probe:true t ~mem_free ~slot ~cycle in
    let rk = rank_block reason in
    if rk > !best_rank then begin
      best_rank := rk;
      best := reason
    end
  done;
  if !best_rank < rank_block Blocked_deps && t.pend <> 0 then Stats.Stall_deps
  else if !best_rank < rank_block Blocked_barrier && t.at_bar <> 0 then
    Stats.Stall_barrier
  else stall_reason_of_block !best

let classify_idle t ~cycle = classify ~count:false t ~cycle

(* --- diagnostics ------------------------------------------------------ *)

type warp_diag = {
  d_cta : int;
  d_warp : int;
  d_pc : int;
  d_status : Warp.status;
  d_block : Stats.stall_reason;
  d_ready_at : int;
  d_holds_ext : bool;
  d_held_section : int option;
  d_held_cycles : int;
}

let diagnose t ~cycle =
  let soa = t.soa in
  let acc = ref [] in
  let mem_free = Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle in
  for slot = soa.Soa.n_slots - 1 downto 0 do
    if soa.Soa.status.(slot) < Soa.st_done then begin
      let block = check_warp ~probe:true t ~mem_free ~slot ~cycle in
      let held_section =
        match t.pstate with
        | Ps_srp srp -> Srp.holds srp ~warp:slot
        | Ps_paired srp ->
            if Srp_paired.holds srp ~warp:slot then
              Some (Srp_paired.pair_of_warp ~warp:slot)
            else None
        | Ps_owf ->
            if soa.Soa.owns_ext.(slot) = 1 then Some (slot / 2) else None
        | Ps_static | Ps_rfv _ -> None
      in
      acc :=
        {
          d_cta = soa.Soa.global_cta.(slot);
          d_warp = soa.Soa.warp_in_cta.(slot);
          d_pc = soa.Soa.pc.(slot);
          d_status = Soa.status_of soa slot;
          d_block = stall_reason_of_block block;
          d_ready_at = soa.Soa.ready_at.(slot);
          d_holds_ext = held_section <> None;
          d_held_section = held_section;
          d_held_cycles =
            (if held_section <> None && soa.Soa.acquired_at.(slot) >= 0 then
               cycle - soa.Soa.acquired_at.(slot)
             else 0);
        }
        :: !acc
    end
  done;
  !acc

let pp_warp_diag ppf d =
  let status =
    match d.d_status with
    | Warp.Ready -> "ready"
    | Warp.At_barrier -> "at-barrier"
    | Warp.Done -> "done"
  in
  Format.fprintf ppf "cta %d warp %d: pc=%d %s block=%s ready_at=%s" d.d_cta
    d.d_warp d.d_pc status
    (Stats.reason_name d.d_block)
    (if d.d_ready_at = max_int then "-" else string_of_int d.d_ready_at);
  match d.d_held_section with
  | Some s ->
      Format.fprintf ppf " [holds section %d for %d cycles]" s d.d_held_cycles
  | None -> if d.d_holds_ext then Format.fprintf ppf " [holds ext set]"

let srp_invariant t =
  match t.pstate with
  | Ps_srp srp ->
      let in_use = Srp.in_use srp
      and free = Srp.free_sections srp
      and sections = Srp.n_sections srp in
      if in_use + free <> sections then
        Some
          (Printf.sprintf "SRP conservation broken: %d in use + %d free <> %d sections"
             in_use free sections)
      else if not (Srp.consistent srp) then
        Some "SRP status/bitmask/LUT bookkeeping out of sync"
      else None
  | Ps_paired srp ->
      let in_use = Srp_paired.in_use srp
      and pairs = Srp_paired.n_pairs srp in
      if in_use < 0 || in_use > pairs then
        Some
          (Printf.sprintf "paired SRP accounting broken: %d in use of %d pairs"
             in_use pairs)
      else None
  | Ps_static | Ps_owf | Ps_rfv _ -> None

let account_idle_span t ~from ~reason ~span =
  if t.resident_warps > 0 && span > 0 then begin
    (* Every scheduler of an idle SM bumps the same stall reason once per
       cycle, so a skipped span of [span] identical cycles contributes
       [span * n_schedulers] bumps — exactly what stepping them one by one
       would have recorded. *)
    let n = span * Array.length t.schedulers in
    Stats.bump_stall_by t.stats reason n;
    if reason = Stats.Stall_acquire then
      t.stats.Stats.acquire_stall_cycles <- t.stats.Stats.acquire_stall_cycles + n;
    match t.probe with
    | Some p -> Probe.note_idle_span p ~from ~span ~reason
    | None -> ()
  end

let finalize_probe t ~cycle =
  match t.probe with Some p -> Probe.finalize p ~cycle | None -> ()

let can_launch t = t.resident_ctas < t.cta_capacity && rfv_can_admit t

let step t ~cycle =
  sync t ~cycle;
  t.now <- cycle;
  (* Idle classification is pure and the SM state only changes when a
     scheduler issues, so consecutive idle schedulers in the same cycle
     share one classification instead of re-walking the warps. *)
  let idle_valid = ref false in
  let idle_reason = ref Stats.Stall_empty in
  let issued_any = ref false in
  let scheds = t.schedulers in
  for i = 0 to Array.length scheds - 1 do
    (* [elig] is re-read per scheduler: an earlier scheduler's issue this
       cycle re-files its own warp (and may release a barrier). *)
    let eligible = t.elig land t.own.(i) in
    let slot =
      if eligible = 0 then -1
      else begin
        (* One pick issues nothing, so the memory-slot answer is constant
           across its candidates; an earlier scheduler's issue this cycle
           may have consumed the last slot, so it is read per pick. It
           decides every global warp at once: with a free slot they pass
           like plain warps, without one none of them can issue. *)
        t.mem_free <- Mem_system.slot_free t.mem_sys ~sm:t.sm_id ~cycle;
        if t.mem_free then
          Scheduler.pick scheds.(i) ~soa:t.soa ~eligible
            ~plain:(t.plain lor t.global) ~can_issue:t.can_issue
        else
          Scheduler.pick scheds.(i) ~soa:t.soa
            ~eligible:(eligible land lnot t.global) ~plain:t.plain
            ~can_issue:t.can_issue
      end
    in
    if slot >= 0 then begin
      idle_valid := false;
      if not !issued_any then begin
        issued_any := true;
        match t.probe with Some p -> Probe.flush_idle p | None -> ()
      end;
      if not (issue t ~slot ~cycle) then
        (* The eligibility the scheduler saw evaporated at the memory
           claim: leave the warp untouched and classify the slot. *)
        Stats.bump_stall t.stats Stats.Stall_mem_retry
    end
    else if t.resident_warps > 0 then begin
      let reason =
        if !idle_valid then !idle_reason
        else begin
          let r = classify ~count:true t ~cycle in
          idle_valid := true;
          idle_reason := r;
          r
        end
      in
      Stats.bump_stall t.stats reason;
      if reason = Stats.Stall_acquire then
        t.stats.Stats.acquire_stall_cycles <-
          t.stats.Stats.acquire_stall_cycles + 1
    end
  done;
  (* A fully idle cycle (no scheduler issued, warps resident) extends the
     SM's current stall episode; the probe closes it at the next issue.
     [idle_valid] necessarily holds here: the last scheduler found nothing
     to issue and classified the cycle. *)
  match t.probe with
  | Some p when (not !issued_any) && t.resident_warps > 0 ->
      if !idle_valid then Probe.note_idle p ~cycle ~reason:!idle_reason
  | Some _ | None -> ()

let issue_state_ok t ~cycle =
  sync t ~cycle;
  let soa = t.soa in
  let elig = ref 0 and pend = ref 0 and at_bar = ref 0 and filed = ref true in
  let plain = ref 0 and global = ref 0 and classes_sound = ref true in
  for slot = 0 to soa.Soa.n_slots - 1 do
    let bit = 1 lsl slot in
    let st = soa.Soa.status.(slot) in
    let r = soa.Soa.ready_at.(slot) in
    if st = Soa.st_barrier then at_bar := !at_bar lor bit
    else if st = Soa.st_ready then begin
      if r <= cycle then elig := !elig lor bit
      else begin
        pend := !pend lor bit;
        if t.wheel.(r land 63) land bit = 0 then filed := false
      end;
      (* The class the warp's pc gives it, and what the residual check
         really answers for it: a plain warp can issue whatever the memory
         slots say, a global one exactly when a slot is free. *)
      let answer mem_free = check_ready ~probe:true t ~mem_free ~slot ~cycle in
      match class_of t ~slot ~pc:soa.Soa.pc.(slot) with
      | Plain ->
          plain := !plain lor bit;
          if answer false <> Can_issue then classes_sound := false
      | Global ->
          global := !global lor bit;
          if answer true <> Can_issue || answer false <> Blocked_mem then
            classes_sound := false
      | Stateful | Owf_ext -> ()
    end
  done;
  (* Every pending slot sits in its own bucket, the buckets are disjoint,
     and together they hold nothing but the pending slots. *)
  let union = ref 0 and disjoint = ref true in
  for b = 0 to 63 do
    let m = t.wheel.(b) in
    if !union land m <> 0 then disjoint := false;
    union := !union lor m
  done;
  t.synced = cycle && t.elig = !elig && t.pend = !pend && t.at_bar = !at_bar
  && !filed && !disjoint && !union = !pend
  && t.plain = !plain && t.global = !global && !classes_sound
