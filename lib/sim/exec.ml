module Instr = Gpu_isa.Instr

type ctx = {
  mutable regs : int array;
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
  mutable base : int;
  mutable lane : int;
  mutable leader : bool;
  mutable taken : int;
}

type outcome =
  | Next
  | Goto of int
  | Stop
  | Sync
  | Acq
  | Rel

(* Registers come from the executing lane's segment of the row; [%laneid]
   is the executing lane, 0 for a warp-level call. Everything else is
   warp-uniform by construction. *)
let operand ctx = function
  | Instr.Reg r -> ctx.regs.(ctx.base + r)
  | Instr.Imm n -> n
  | Instr.Param i -> if i < Array.length ctx.params then ctx.params.(i) else 0
  | Instr.Special Instr.Tid -> ctx.tid
  | Instr.Special Instr.Ctaid -> ctx.ctaid
  | Instr.Special Instr.Ntid -> ctx.ntid
  | Instr.Special Instr.Nctaid -> ctx.nctaid
  | Instr.Special Instr.Warp_id -> ctx.warp_id
  | Instr.Special Instr.Lane_id -> if ctx.lane < 0 then 0 else ctx.lane

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

(* Shared and spill traffic is counted once per instruction by the SM
   (per-pc counts), not here: an expanded warp runs this once per lane. *)
let read ctx space addr =
  match space with
  | Instr.Global -> Memory.read_global ctx.memory addr
  | Instr.Shared -> ctx.shared.(shared_index ctx addr)
  | Instr.Spill -> ctx.shared.(spill_index ctx addr)

(* A store lands in the warp-level trace once, from the leader (a
   warp-level call, or an expanded warp's lowest active lane), and in the
   executing lane's trace. A warp-level call under [--simt] is a collapsed
   warp, whose lanes all hold the stored value, so every lane's trace
   records it. [lanes] is 0 in the warp-uniform model, which keeps no lane
   traces. *)
let record ctx space addr v =
  let cta = ctx.ctaid and warp = ctx.warp_id in
  if ctx.leader then Stats.record_store ctx.stats ~cta ~warp space addr v;
  if ctx.lane >= 0 then
    Stats.record_lane_store ctx.stats ~cta ~warp ~lane:ctx.lane space addr v
  else
    for lane = 0 to ctx.lanes - 1 do
      Stats.record_lane_store ctx.stats ~cta ~warp ~lane space addr v
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
      ctx.shared.(shared_index ctx addr) <- v
  | Instr.Spill -> ctx.shared.(spill_index ctx addr) <- v

let set ctx d v = ctx.regs.(ctx.base + d) <- v

let step ctx instr =
  match instr with
  | Instr.Bin (op, d, a, b) ->
      set ctx d (binop op (operand ctx a) (operand ctx b));
      Next
  | Instr.Un (op, d, a) ->
      set ctx d (unop op (operand ctx a));
      Next
  | Instr.Mad (d, a, b, c) ->
      set ctx d ((operand ctx a * operand ctx b) + operand ctx c);
      Next
  | Instr.Mov (d, a) ->
      set ctx d (operand ctx a);
      Next
  | Instr.Cmp (op, d, a, b) ->
      set ctx d (cmpop op (operand ctx a) (operand ctx b));
      Next
  | Instr.Sel (d, c, a, b) ->
      set ctx d (if operand ctx c <> 0 then operand ctx a else operand ctx b);
      Next
  | Instr.Load (space, d, addr, ofs) ->
      set ctx d (read ctx space (operand ctx addr + ofs));
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
   the lane's segment of the register row: no [operand] dispatch, no
   per-issue closure, and the branch outcomes are allocated here once.
   Every other form defers to [step], the reference these closures are
   tested against. Branch closures only read, so a scheduler peek may
   evaluate them. *)
let decode instr =
  match instr with
  | Instr.Bin (op, d, Instr.Reg a, Instr.Reg b) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- binop op r.(o + a) r.(o + b);
        Next
  | Instr.Bin (op, d, Instr.Reg a, Instr.Imm b) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- binop op r.(o + a) b;
        Next
  | Instr.Bin (op, d, Instr.Imm a, Instr.Reg b) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- binop op a r.(o + b);
        Next
  | Instr.Mov (d, Instr.Reg a) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- r.(o + a);
        Next
  | Instr.Mov (d, Instr.Imm n) ->
      fun ctx ->
        ctx.regs.(ctx.base + d) <- n;
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Reg b, Instr.Reg c) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- (r.(o + a) * r.(o + b)) + r.(o + c);
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Imm b, Instr.Reg c) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- (r.(o + a) * b) + r.(o + c);
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Reg b, Instr.Imm c) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- (r.(o + a) * r.(o + b)) + c;
        Next
  | Instr.Mad (d, Instr.Reg a, Instr.Imm b, Instr.Imm c) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- (r.(o + a) * b) + c;
        Next
  | Instr.Cmp (op, d, Instr.Reg a, Instr.Reg b) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- cmpop op r.(o + a) r.(o + b);
        Next
  | Instr.Cmp (op, d, Instr.Reg a, Instr.Imm b) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- cmpop op r.(o + a) b;
        Next
  | Instr.Jump t ->
      let taken = Goto t in
      fun _ -> taken
  | Instr.Jump_if (Instr.Reg c, t) ->
      let taken = Goto t in
      fun ctx -> if ctx.regs.(ctx.base + c) <> 0 then taken else Next
  | Instr.Jump_ifz (Instr.Reg c, t) ->
      let taken = Goto t in
      fun ctx -> if ctx.regs.(ctx.base + c) = 0 then taken else Next
  | Instr.Load (Instr.Global, d, Instr.Reg a, ofs) ->
      fun ctx ->
        let r = ctx.regs and o = ctx.base in
        r.(o + d) <- Memory.read_global ctx.memory (r.(o + a) + ofs);
        Next
  | Instr.Bar -> fun _ -> Sync
  | Instr.Acquire -> fun _ -> Acq
  | Instr.Release -> fun _ -> Rel
  | Instr.Exit -> fun _ -> Stop
  | Instr.Bin _ | Instr.Un _ | Instr.Mad _ | Instr.Mov _ | Instr.Cmp _
  | Instr.Sel _ | Instr.Load _ | Instr.Store _ | Instr.Jump_if _
  | Instr.Jump_ifz _ ->
      fun ctx -> step ctx instr

(* --- the n-lane driver ------------------------------------------------- *)

(* Run one decoded instruction once for each lane in [mask], lane [l] on
   the row segment at [l * stride]; [stride] 0 evaluates every lane on the
   warp-level segment (a collapsed warp's, for a pure branch peek). The
   first lane is the store leader. [shared_oob] bumps at most once per
   instruction however many lanes wrapped, as a warp-level call would.
   Leaves the lanes whose outcome was a [Goto] in [taken] and the context
   at warp level again. *)
let run_lanes ctx f ~mask ~stride =
  let oob = ctx.stats.Stats.shared_oob in
  let out = ref Next and taken = ref 0 and m = ref mask in
  while !m <> 0 do
    let lane = Gpu_isa.Bits.lowest !m in
    m := !m land (!m - 1);
    ctx.lane <- lane;
    ctx.base <- lane * stride;
    (match f ctx with
    | Next -> ()
    | Goto _ as o ->
        taken := !taken lor (1 lsl lane);
        out := o
    | (Stop | Sync | Acq | Rel) as o -> out := o);
    ctx.leader <- false
  done;
  if ctx.stats.Stats.shared_oob > oob then ctx.stats.Stats.shared_oob <- oob + 1;
  ctx.lane <- -1;
  ctx.base <- 0;
  ctx.leader <- true;
  ctx.taken <- !taken;
  !out
