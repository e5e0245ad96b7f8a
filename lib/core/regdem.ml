module Instr = Gpu_isa.Instr
module Program = Gpu_isa.Program
module Regset = Gpu_isa.Regset
module Facts = Gpu_analysis.Facts
module Kernel = Gpu_sim.Kernel
module Policy = Gpu_sim.Policy

exception Unsound of string

type plan = {
  original : Gpu_isa.Program.t;
  transformed : Gpu_isa.Program.t;
  keep : int;
  scratch : int;
  allocated : int;
  demoted : int;
  wpc : int;
  spill_words : int;
  n_spills : int;
  n_fills : int;
}

type candidate = {
  c_keep : int;
  c_scratch : int;
  c_allocated : int;
  c_demoted : int;
  c_spill_words : int;
  c_shmem_bytes : int;
  c_warps : int;
  c_static_spills : int;
  c_static_fills : int;
}

type choice = {
  baseline_warps : int;
  candidates : candidate list;
  best : candidate option;
}

(* The per-CTA spill window: one 32-bit word per (demoted register, warp)
   pair, laid out register-major so a warp's slot for demoted register [j]
   is [j * wpc + warp_id]. The enlarged allocation keeps the user's window
   in front — sized [max 1 (orig / 4)] words exactly as a plain launch
   would allocate it, so user accesses wrap identically with or without
   the pass. *)
let user_words kernel = max 1 (kernel.Kernel.shmem_bytes / 4)

let shmem_bytes_with_window kernel ~spill_words =
  4 * (user_words kernel + spill_words)

(* Per instruction: the registers it references, uses and defines. *)
type reg_sets = { refs : Regset.t array; uses : Regset.t array; defs : Regset.t array }

let reg_sets prog =
  let n = Program.length prog in
  let sets f = Array.init n (fun i -> f (Program.get prog i)) in
  { refs = sets Instr.regs; uses = sets Instr.uses; defs = sets Instr.defs }

(* Static spill profile of a program, [demoted s] being the demoted
   registers of set [s]: per-instruction distinct demoted references
   bound the scratch registers needed, demoted uses become fills, demoted
   defs become spill stores. *)
let scan ~demoted sets =
  let scratch = ref 0 and fills = ref 0 and spills = ref 0 in
  let count s = Regset.cardinal (demoted s) in
  for i = 0 to Array.length sets.refs - 1 do
    scratch := max !scratch (count sets.refs.(i));
    fills := !fills + count sets.uses.(i);
    spills := !spills + count sets.defs.(i)
  done;
  (!scratch, !spills, !fills)

(* The registers a ranking places at or above [keep]: the ones demoted
   once the program is renamed by it. A renaming keeps every instruction's
   register counts, so scanning the original program with this set gives
   the renamed program's profile. *)
let hot_set ~keep perm =
  let hot = ref Regset.empty in
  Array.iteri (fun r rank -> if rank >= keep then hot := Regset.add r !hot) perm;
  !hot

(* [ranking] and [sets] are the kernel program's ranking sweep and
   register sets: they do not depend on [keep], so one of each serves the
   whole sweep. *)
let candidate_of cfg kernel ~ranking ~sets ~keep =
  let n_regs = kernel.Kernel.program.Program.n_regs in
  let wpc = Kernel.warps_per_cta cfg kernel in
  let scratch, static_spills, static_fills =
    scan ~demoted:(Regset.inter (hot_set ~keep (ranking ~bs:keep))) sets
  in
  let demoted = n_regs - keep in
  let allocated = keep + scratch in
  let spill_words = demoted * wpc in
  let shmem_bytes = shmem_bytes_with_window kernel ~spill_words in
  let capacity =
    Gpu_sim.Sm.cta_capacity_for cfg
      ~policy:(Policy.Regdem { regs_per_thread = allocated; spill_words })
      ~kernel:(Kernel.with_shmem_bytes kernel shmem_bytes)
  in
  {
    c_keep = keep;
    c_scratch = scratch;
    c_allocated = allocated;
    c_demoted = demoted;
    c_spill_words = spill_words;
    c_shmem_bytes = shmem_bytes;
    c_warps = capacity * wpc;
    c_static_spills = static_spills;
    c_static_fills = static_fills;
  }

let baseline_warps cfg kernel =
  let wpc = Kernel.warps_per_cta cfg kernel in
  wpc
  * Gpu_sim.Sm.cta_capacity_for cfg
      ~policy:
        (Policy.Static { regs_per_thread = Kernel.regs_per_thread kernel })
      ~kernel

(* Sweep every keep-count below the full register demand, like
   {!Es_heuristic} sweeps |Es| fractions. A candidate is viable only when
   it strictly beats the baseline's resident-warp count — spilling costs
   shared-memory traffic on every demoted access, so occupancy parity is
   not worth it. Among viable candidates the sweep keeps the highest warp
   count and breaks ties toward fewer demotions (higher keep), then fewer
   static fills. *)
let choose_facts ?(widen = true) facts cfg kernel =
  let n_regs = Kernel.regs_per_thread kernel in
  let base = baseline_warps cfg kernel in
  let prog = kernel.Kernel.program in
  let ranking = Compaction.pressure_ranking prog (Facts.liveness ~widen facts) in
  let sets = reg_sets prog in
  let candidates =
    List.init (max 0 (n_regs - 1)) (fun i ->
        candidate_of cfg kernel ~ranking ~sets ~keep:(n_regs - 1 - i))
  in
  let better a b =
    a.c_warps > b.c_warps
    || (a.c_warps = b.c_warps
        && (a.c_keep > b.c_keep
            || (a.c_keep = b.c_keep && a.c_static_fills < b.c_static_fills)))
  in
  let best =
    List.fold_left
      (fun acc c ->
        if c.c_warps <= base then acc
        else
          match acc with
          | Some b when better b c -> acc
          | _ -> Some c)
      None candidates
  in
  { baseline_warps = base; candidates; best }

let choose ?widen cfg kernel =
  choose_facts ?widen (Facts.of_program kernel.Kernel.program) cfg kernel

(* --- the demotion transform ------------------------------------------ *)

(* Expand each instruction into
     [fills for demoted uses] @ [instr with demoted regs -> scratch]
     @ [spill stores for demoted defs]
   and retarget every branch to the head of its target's group, so a jump
   into an instruction executes that instruction's fills first. Spill
   stores only ever follow fall-through instructions (branches define no
   registers), so no group's tail can be skipped by its own control flow.
   [Program.insert_before] is not usable here: the spill store belongs
   *after* the rewritten instruction, inside its group. *)
let expand ~keep ~wpc prog =
  let n = Program.length prog in
  let demoted_of set = Regset.to_list (Regset.above keep set) in
  let slot_ofs d = (d - keep) * wpc in
  let groups =
    Array.init n (fun i ->
        let instr = Program.get prog i in
        let hot = demoted_of (Instr.regs instr) in
        if hot = [] then [ instr ]
        else begin
          (* Scratch slot for each distinct demoted register, in ascending
             register order. *)
          let slot d =
            let rec idx j = function
              | [] -> invalid_arg "Regdem.expand: unmapped demoted register"
              | r :: tl -> if r = d then keep + j else idx (j + 1) tl
            in
            idx 0 hot
          in
          let fills =
            List.map
              (fun d ->
                Instr.Load (Instr.Spill, slot d, Instr.Special Instr.Warp_id,
                            slot_ofs d))
              (demoted_of (Instr.uses instr))
          in
          let spills =
            List.map
              (fun d ->
                Instr.Store (Instr.Spill, Instr.Special Instr.Warp_id,
                             Instr.Reg (slot d), slot_ofs d))
              (demoted_of (Instr.defs instr))
          in
          let rewritten =
            Instr.map_regs (fun r -> if r >= keep then slot r else r) instr
          in
          fills @ [ rewritten ] @ spills
        end)
  in
  let starts = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i g ->
      starts.(i) <- !total;
      total := !total + List.length g)
    groups;
  let body = Array.make !total Instr.Exit in
  Array.iteri
    (fun i g ->
      List.iteri
        (fun j instr ->
          body.(starts.(i) + j) <- Instr.map_target (fun t -> starts.(t)) instr)
        g)
    groups;
  Program.create ~name:prog.Program.name body

(* Static soundness check: the transformed program must stay inside its
   reduced register allocation and its spill window. A violation is a bug
   in this pass, mirroring {!Transform.Unsound}. *)
let check_plan plan =
  let p = plan.transformed in
  for i = 0 to Program.length p - 1 do
    let instr = Program.get p i in
    let rs = Instr.regs instr in
    if (not (Regset.is_empty rs)) && Regset.max_elt rs >= plan.allocated then
      raise
        (Unsound
           (Printf.sprintf "instruction %d references r%d beyond allocation %d"
              i (Regset.max_elt rs) plan.allocated));
    match instr with
    | Instr.Load (Instr.Spill, _, _, ofs) | Instr.Store (Instr.Spill, _, _, ofs)
      ->
        if ofs < 0 || ofs + plan.wpc > plan.spill_words then
          raise
            (Unsound
               (Printf.sprintf
                  "instruction %d spill offset %d outside window of %d words" i
                  ofs plan.spill_words))
    | _ -> ()
  done

let transform ?(widen = true) ~keep ~wpc facts =
  let prog = Facts.program facts in
  let n_regs = prog.Program.n_regs in
  if keep < 1 || keep >= n_regs then
    invalid_arg "Regdem.transform: keep must be in [1, n_regs)";
  if wpc < 1 then invalid_arg "Regdem.transform: wpc must be positive";
  let permuted =
    Compaction.permute prog
      (Compaction.pressure_ranking ~bs:keep prog (Facts.liveness ~widen facts))
  in
  let scratch, n_spills, n_fills =
    scan ~demoted:(Regset.above keep) (reg_sets permuted)
  in
  let transformed = expand ~keep ~wpc permuted in
  let demoted = n_regs - keep in
  let plan =
    {
      original = prog;
      transformed;
      keep;
      scratch;
      allocated = keep + scratch;
      demoted;
      wpc;
      spill_words = demoted * wpc;
      n_spills;
      n_fills;
    }
  in
  check_plan plan;
  plan

let pp_candidate ppf c =
  Format.fprintf ppf
    "keep=%d (+%d scratch) demote=%d -> %d warps, %dB shmem, %d spills/%d fills"
    c.c_keep c.c_scratch c.c_demoted c.c_warps c.c_shmem_bytes c.c_static_spills
    c.c_static_fills
