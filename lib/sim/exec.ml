module Instr = Gpu_isa.Instr

type ctx = {
  regs : int array;
  params : int array;
  tid : int;
  mutable ctaid : int;
  ntid : int;
  nctaid : int;
  warp_id : int;
  mutable shared : int array;
  spill_words : int;
  memory : Memory.t;
  stats : Stats.t;
  record_stores : bool;
  lanes : int;
  n_regs : int;
  mutable lane_regs : int array;
}

type outcome =
  | Next
  | Goto of int
  | Stop
  | Sync
  | Acq
  | Rel

type lane_outcome =
  | L_uniform of outcome
  | L_diverge of { taken : int; tgt : int }

let operand ctx = function
  | Instr.Reg r -> ctx.regs.(r)
  | Instr.Imm n -> n
  | Instr.Param i -> if i < Array.length ctx.params then ctx.params.(i) else 0
  | Instr.Special Instr.Tid -> ctx.tid
  | Instr.Special Instr.Ctaid -> ctx.ctaid
  | Instr.Special Instr.Ntid -> ctx.ntid
  | Instr.Special Instr.Nctaid -> ctx.nctaid
  | Instr.Special Instr.Warp_id -> ctx.warp_id
  | Instr.Special Instr.Lane_id -> 0

(* Lane-resolved operand read: registers come from the lane's row of the
   per-lane file, [%laneid] distinguishes the lanes, and everything else
   is warp-uniform by construction. *)
let lane_operand ctx lane = function
  | Instr.Reg r -> ctx.lane_regs.((lane * ctx.n_regs) + r)
  | Instr.Imm n -> n
  | Instr.Param i -> if i < Array.length ctx.params then ctx.params.(i) else 0
  | Instr.Special Instr.Tid -> ctx.tid
  | Instr.Special Instr.Ctaid -> ctx.ctaid
  | Instr.Special Instr.Ntid -> ctx.ntid
  | Instr.Special Instr.Nctaid -> ctx.nctaid
  | Instr.Special Instr.Warp_id -> ctx.warp_id
  | Instr.Special Instr.Lane_id -> lane

let binop op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then 0 else a / b
  | Instr.Rem -> if b = 0 then 0 else a mod b
  | Instr.Min -> min a b
  | Instr.Max -> max a b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 31)
  | Instr.Shr -> a asr (b land 31)

let unop op a =
  match op with
  | Instr.Neg -> -a
  | Instr.Not -> lnot a
  | Instr.Abs -> abs a

let cmpop op a b =
  let r =
    match op with
    | Instr.Eq -> a = b
    | Instr.Ne -> a <> b
    | Instr.Lt -> a < b
    | Instr.Le -> a <= b
    | Instr.Gt -> a > b
    | Instr.Ge -> a >= b
  in
  if r then 1 else 0

(* Out-of-bounds shared accesses wrap (real hardware would fault or read a
   neighbour's bank); the wrap is counted so workloads exercising it are
   visible in the statistics rather than silently absorbed. The user
   window excludes the spill window RegDem reserves at the top of the
   allocation, so a user access wraps exactly as it would without the
   demotion pass — the spill window is invisible to the program's
   architectural shared-memory semantics. *)
let shared_index ctx addr =
  let words = Array.length ctx.shared - ctx.spill_words in
  if addr < 0 || addr >= words then
    ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
  ((addr mod words) + words) mod words

(* Non-counting variants used by the per-lane path: lane accesses report
   out-of-bounds through [oob] so the instruction as a whole bumps
   [shared_oob] at most once — exactly the count a warp-uniform program
   produces in the warp-uniform model. *)
let shared_index_flag ctx oob addr =
  let words = Array.length ctx.shared - ctx.spill_words in
  if addr < 0 || addr >= words then oob := true;
  ((addr mod words) + words) mod words

let spill_index_flag ctx oob rel =
  if ctx.spill_words > 0 && rel >= 0 && rel < ctx.spill_words then
    Array.length ctx.shared - ctx.spill_words + rel
  else begin
    oob := true;
    let words = Array.length ctx.shared in
    ((rel mod words) + words) mod words
  end

(* Spill accesses address the reserved window relative to its base. Any
   access outside the window — including a spill instruction executing
   with no window configured — is a compiler bug, counted as [shared_oob]
   and wrapped into the user window so it stays observable downstream
   (the fuzz oracle treats a shared_oob delta vs baseline as a hard
   failure). *)
let spill_index ctx rel =
  if ctx.spill_words > 0 && rel >= 0 && rel < ctx.spill_words then
    Array.length ctx.shared - ctx.spill_words + rel
  else begin
    ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
    let words = Array.length ctx.shared in
    ((rel mod words) + words) mod words
  end

let read ctx space addr =
  match space with
  | Instr.Global -> Memory.read_global ctx.memory addr
  | Instr.Shared ->
      ctx.stats.Stats.shared_reads <- ctx.stats.Stats.shared_reads + 1;
      ctx.shared.(shared_index ctx addr)
  | Instr.Spill ->
      ctx.stats.Stats.fill_loads <- ctx.stats.Stats.fill_loads + 1;
      ctx.shared.(spill_index ctx addr)

(* A warp-level store: under [--simt] a collapsed warp's lanes all hold
   the stored value, so every lane's trace records it too — the traces an
   expanded warp produces under the full mask. [lanes] is 0 in the
   warp-uniform model, which keeps no lane traces. *)
let record ctx space addr v =
  Stats.record_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id space addr v;
  for lane = 0 to ctx.lanes - 1 do
    Stats.record_lane_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id ~lane space
      addr v
  done

(* Spill stores are micro-architectural traffic, not program semantics:
   they are never recorded in the architectural store trace, which is what
   lets the fuzz oracle demand store-trace equality between RegDem and
   baseline. *)
let write ctx space addr v =
  match space with
  | Instr.Global ->
      if ctx.record_stores then record ctx space addr v;
      Memory.write_global ctx.memory addr v
  | Instr.Shared ->
      if ctx.record_stores then record ctx space addr v;
      ctx.stats.Stats.shared_writes <- ctx.stats.Stats.shared_writes + 1;
      ctx.shared.(shared_index ctx addr) <- v
  | Instr.Spill ->
      ctx.stats.Stats.spill_stores <- ctx.stats.Stats.spill_stores + 1;
      ctx.shared.(spill_index ctx addr) <- v

let step ctx instr =
  match instr with
  | Instr.Bin (op, d, a, b) ->
      ctx.regs.(d) <- binop op (operand ctx a) (operand ctx b);
      Next
  | Instr.Un (op, d, a) ->
      ctx.regs.(d) <- unop op (operand ctx a);
      Next
  | Instr.Mad (d, a, b, c) ->
      ctx.regs.(d) <- (operand ctx a * operand ctx b) + operand ctx c;
      Next
  | Instr.Mov (d, a) ->
      ctx.regs.(d) <- operand ctx a;
      Next
  | Instr.Cmp (op, d, a, b) ->
      ctx.regs.(d) <- cmpop op (operand ctx a) (operand ctx b);
      Next
  | Instr.Sel (d, c, a, b) ->
      ctx.regs.(d) <- (if operand ctx c <> 0 then operand ctx a else operand ctx b);
      Next
  | Instr.Load (space, d, addr, ofs) ->
      ctx.regs.(d) <- read ctx space (operand ctx addr + ofs);
      Next
  | Instr.Store (space, addr, value, ofs) ->
      write ctx space (operand ctx addr + ofs) (operand ctx value);
      Next
  | Instr.Jump t -> Goto t
  | Instr.Jump_if (c, t) -> if operand ctx c <> 0 then Goto t else Next
  | Instr.Jump_ifz (c, t) -> if operand ctx c = 0 then Goto t else Next
  | Instr.Bar -> Sync
  | Instr.Acquire -> Acq
  | Instr.Release -> Rel
  | Instr.Exit -> Stop

(* --- pre-decoded execution --------------------------------------------- *)

(* The forms the register-allocated workloads run most, specialised on
   opcode and operand kinds so an issue reads its operands straight from
   the register row: no [operand] dispatch, no per-issue closure, and the
   branch outcomes are allocated here once. Every other form defers to
   [step], the reference these closures are tested against. *)
let decode instr =
  match instr with
  | Instr.Bin (op, d, Instr.Reg a, Instr.Reg b) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- binop op r.(a) r.(b);
        Next
  | Instr.Bin (op, d, Instr.Reg a, Instr.Imm b) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- binop op r.(a) b;
        Next
  | Instr.Bin (op, d, Instr.Imm a, Instr.Reg b) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- binop op a r.(b);
        Next
  | Instr.Mov (d, Instr.Reg a) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- r.(a);
        Next
  | Instr.Mov (d, Instr.Imm n) ->
      fun ctx ->
        ctx.regs.(d) <- n;
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Reg b, Instr.Reg c) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- (r.(a) * r.(b)) + r.(c);
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Imm b, Instr.Reg c) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- (r.(a) * b) + r.(c);
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Reg b, Instr.Imm c) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- (r.(a) * r.(b)) + c;
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Imm b, Instr.Imm c) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- (r.(a) * b) + c;
        Next
  | Instr.Cmp (op, d, Instr.Reg a, Instr.Reg b) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- cmpop op r.(a) r.(b);
        Next
  | Instr.Cmp (op, d, Instr.Reg a, Instr.Imm b) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- cmpop op r.(a) b;
        Next
  | Instr.Jump t ->
      let taken = Goto t in
      fun _ -> taken
  | Instr.Jump_if (Instr.Reg c, t) ->
      let taken = Goto t in
      fun ctx -> if ctx.regs.(c) <> 0 then taken else Next
  | Instr.Jump_ifz (Instr.Reg c, t) ->
      let taken = Goto t in
      fun ctx -> if ctx.regs.(c) = 0 then taken else Next
  | Instr.Load (Instr.Global, d, Instr.Reg a, ofs) ->
      fun ctx ->
        let r = ctx.regs in
        r.(d) <- Memory.read_global ctx.memory (r.(a) + ofs);
        Next
  | Instr.Bar -> fun _ -> Sync
  | Instr.Acquire -> fun _ -> Acq
  | Instr.Release -> fun _ -> Rel
  | Instr.Exit -> fun _ -> Stop
  | Instr.Bin _ | Instr.Un _ | Instr.Mad _ | Instr.Mov _ | Instr.Cmp _
  | Instr.Sel _ | Instr.Load _ | Instr.Store _ | Instr.Jump_if _
  | Instr.Jump_ifz _ ->
      fun ctx -> step ctx instr

(* --- per-lane (SIMT) execution ----------------------------------------- *)

(* Pure evaluation of a conditional branch's per-lane outcome: the mask of
   active lanes whose condition takes the branch. Counts nothing (the RFV
   peek calls this every scheduler probe). [None] for
   non-conditional instructions. A [collapsed] warp's lanes all hold
   [regs], so only [%laneid] tells them apart. *)
let branch_masks ?(collapsed = false) ctx instr ~mask =
  let read lane c =
    if not collapsed then lane_operand ctx lane c
    else match c with Instr.Special Instr.Lane_id -> lane | c -> operand ctx c
  in
  let eval c keep =
    let taken = ref 0 in
    for lane = 0 to ctx.lanes - 1 do
      let bit = 1 lsl lane in
      if mask land bit <> 0 && keep (read lane c) then
        taken := !taken lor bit
    done;
    !taken
  in
  match instr with
  | Instr.Jump_if (c, t) -> Some (eval c (fun v -> v <> 0), t)
  | Instr.Jump_ifz (c, t) -> Some (eval c (fun v -> v = 0), t)
  | _ -> None

(* Evaluate one instruction for every lane in [mask]. Counter discipline:
   shared/spill traffic counters advance once per
   instruction (the same totals the warp-uniform model produces for the
   same dynamic instruction stream), and [shared_oob] is clamped to at
   most one bump per instruction. The architectural (warp-level) store
   trace records the lowest active lane, which for a warp-uniform program
   is bit-identical to the uniform trace; the full lane-resolved trace is
   recorded separately per lane. *)
let step_simt ctx instr ~mask =
  let n = ctx.n_regs in
  let set lane d value = ctx.lane_regs.((lane * n) + d) <- value in
  let each f =
    for lane = 0 to ctx.lanes - 1 do
      if mask land (1 lsl lane) <> 0 then f lane
    done
  in
  match instr with
  | Instr.Bin (op, d, a, b) ->
      each (fun l -> set l d (binop op (lane_operand ctx l a) (lane_operand ctx l b)));
      L_uniform Next
  | Instr.Un (op, d, a) ->
      each (fun l -> set l d (unop op (lane_operand ctx l a)));
      L_uniform Next
  | Instr.Mad (d, a, b, c) ->
      each (fun l ->
          set l d
            ((lane_operand ctx l a * lane_operand ctx l b) + lane_operand ctx l c));
      L_uniform Next
  | Instr.Mov (d, a) ->
      each (fun l -> set l d (lane_operand ctx l a));
      L_uniform Next
  | Instr.Cmp (op, d, a, b) ->
      each (fun l -> set l d (cmpop op (lane_operand ctx l a) (lane_operand ctx l b)));
      L_uniform Next
  | Instr.Sel (d, c, a, b) ->
      each (fun l ->
          set l d
            (if lane_operand ctx l c <> 0 then lane_operand ctx l a
             else lane_operand ctx l b));
      L_uniform Next
  | Instr.Load (space, d, addr, ofs) ->
      (match space with
      | Instr.Global -> ()
      | Instr.Shared ->
          ctx.stats.Stats.shared_reads <- ctx.stats.Stats.shared_reads + 1
      | Instr.Spill ->
          ctx.stats.Stats.fill_loads <- ctx.stats.Stats.fill_loads + 1);
      let oob = ref false in
      each (fun l ->
          let a = lane_operand ctx l addr + ofs in
          let v =
            match space with
            | Instr.Global -> Memory.read_global ctx.memory a
            | Instr.Shared -> ctx.shared.(shared_index_flag ctx oob a)
            | Instr.Spill -> ctx.shared.(spill_index_flag ctx oob a)
          in
          set l d v);
      if !oob then ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
      L_uniform Next
  | Instr.Store (space, addr, value, ofs) ->
      (match space with
      | Instr.Global -> ()
      | Instr.Shared ->
          ctx.stats.Stats.shared_writes <- ctx.stats.Stats.shared_writes + 1
      | Instr.Spill ->
          ctx.stats.Stats.spill_stores <- ctx.stats.Stats.spill_stores + 1);
      let oob = ref false in
      let leader = ref (-1) in
      each (fun l ->
          let a = lane_operand ctx l addr + ofs in
          let v = lane_operand ctx l value in
          if ctx.record_stores && space <> Instr.Spill then begin
            if !leader < 0 then begin
              leader := l;
              Stats.record_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id space a v
            end;
            Stats.record_lane_store ctx.stats ~cta:ctx.ctaid ~warp:ctx.warp_id
              ~lane:l space a v
          end;
          match space with
          | Instr.Global -> Memory.write_global ctx.memory a v
          | Instr.Shared -> ctx.shared.(shared_index_flag ctx oob a) <- v
          | Instr.Spill -> ctx.shared.(spill_index_flag ctx oob a) <- v);
      if !oob then ctx.stats.Stats.shared_oob <- ctx.stats.Stats.shared_oob + 1;
      L_uniform Next
  | Instr.Jump t -> L_uniform (Goto t)
  | Instr.Jump_if _ | Instr.Jump_ifz _ -> (
      match branch_masks ctx instr ~mask with
      | Some (taken, tgt) ->
          if taken = 0 then L_uniform Next
          else if taken = mask then L_uniform (Goto tgt)
          else L_diverge { taken; tgt }
      | None ->
          invalid_arg
            ("Exec.step_simt: no lane mask for conditional branch "
            ^ Instr.to_string instr))
  | Instr.Bar -> L_uniform Sync
  | Instr.Acquire -> L_uniform Acq
  | Instr.Release -> L_uniform Rel
  | Instr.Exit -> L_uniform Stop
