type status = Ready | At_barrier | Done

module Soa = struct
  let st_ready = 0
  let st_barrier = 1
  let st_done = 2
  let st_absent = 3

  (* Per-slot SIMT execution state: the immediate-post-dominator
     reconvergence stack. The running state is the triple (pc.(slot),
     active.(slot), rpc.(slot)); suspended arms and reconvergence
     continuations live on the stack, deepest scope first. Stacks grow by
     doubling — a divergent loop pushes one continuation per diverging
     iteration. A collapsed slot has not read [%laneid] yet, so its lanes
     are equal: it runs on lane 0's segment of its register row under the
     full mask with an empty stack. *)
  type simt = {
    lanes : int;
    full_mask : int;
    collapsed : int array;        (* slot -> 1 while at warp level *)
    active : int array;           (* slot -> active-lane bitmask *)
    rpc : int array;              (* slot -> current reconvergence pc *)
    stk_pc : int array array;   (* slot -> entry pcs (rows grow by doubling) *)
    stk_rpc : int array array;
    stk_mask : int array array;
    stk_depth : int array;
  }

  type t = {
    n_slots : int;
    n_regs : int;
    status : int array;
    pc : int array;
    ready_at : int array;
    age : int array;
    key : int array;
    acquire_stalled : int array;
    acquired_at : int array;
    issued : int array;
    global_cta : int array;
    warp_in_cta : int array;
    cta_slot : int array;
    regs : int array array;
    reg_ready : int array array;
    simt : simt option;
  }

  let create ?lanes ~n_slots ~n_regs () =
    if n_slots < 1 then invalid_arg "Warp.Soa.create: n_slots must be >= 1";
    if n_regs < 1 then invalid_arg "Warp.Soa.create: n_regs must be >= 1";
    let simt =
      match lanes with
      | None -> None
      | Some lanes ->
          if lanes < 1 || lanes > 62 then
            invalid_arg "Warp.Soa.create: lanes must be in 1..62";
          Some
            {
              lanes;
              full_mask = (1 lsl lanes) - 1;
              collapsed = Array.make n_slots 0;
              active = Array.make n_slots 0;
              rpc = Array.make n_slots 0;
              stk_pc = Array.init n_slots (fun _ -> Array.make 8 0);
              stk_rpc = Array.init n_slots (fun _ -> Array.make 8 0);
              stk_mask = Array.init n_slots (fun _ -> Array.make 8 0);
              stk_depth = Array.make n_slots 0;
            }
    in
    {
      n_slots;
      n_regs;
      status = Array.make n_slots st_absent;
      pc = Array.make n_slots 0;
      ready_at = Array.make n_slots 0;
      age = Array.make n_slots 0;
      key = Array.make n_slots max_int;
      acquire_stalled = Array.make n_slots 0;
      acquired_at = Array.make n_slots (-1);
      issued = Array.make n_slots 0;
      global_cta = Array.make n_slots (-1);
      warp_in_cta = Array.make n_slots (-1);
      cta_slot = Array.make n_slots (-1);
      regs = Array.init n_slots (fun _ -> Array.make n_regs 0);
      reg_ready = Array.init n_slots (fun _ -> Array.make n_regs 0);
      simt;
    }

  let resident t slot = t.status.(slot) <> st_absent

  let status_of t slot =
    match t.status.(slot) with
    | 0 -> Ready
    | 1 -> At_barrier
    | 2 -> Done
    | _ -> invalid_arg "Warp.Soa.status_of: no warp resident in slot"

  let launch t ~slot ~cta_slot ~global_cta ~warp_in_cta ~age =
    t.status.(slot) <- st_ready;
    t.pc.(slot) <- 0;
    t.ready_at.(slot) <- 0;
    t.age.(slot) <- age;
    t.acquire_stalled.(slot) <- 0;
    t.acquired_at.(slot) <- -1;
    t.issued.(slot) <- 0;
    t.global_cta.(slot) <- global_cta;
    t.warp_in_cta.(slot) <- warp_in_cta;
    t.cta_slot.(slot) <- cta_slot;
    Array.fill t.regs.(slot) 0 t.n_regs 0;
    Array.fill t.reg_ready.(slot) 0 t.n_regs 0

  let retire t ~slot =
    t.status.(slot) <- st_absent;
    t.key.(slot) <- max_int

  let deps_ready t ~slot instr ~cycle =
    let rr = t.reg_ready.(slot) in
    let ready rs = not (Gpu_isa.Regset.exists (fun r -> rr.(r) > cycle) rs) in
    ready (Gpu_isa.Instr.uses instr) && ready (Gpu_isa.Instr.defs instr)

  let refresh_ready_at t ~slot ~touched =
    let rr = t.reg_ready.(slot) in
    let m = ref 0 in
    for i = 0 to Array.length touched - 1 do
      let v = rr.(touched.(i)) in
      if v > !m then m := v
    done;
    t.ready_at.(slot) <- !m

  (* --- SIMT reconvergence stack ---------------------------------------- *)

  let simt_get t =
    match t.simt with
    | Some s -> s
    | None -> invalid_arg "Warp.Soa: SIMT operation in warp-uniform mode"

  let top_level s ~slot ~mask ~rpc =
    s.active.(slot) <- mask;
    s.rpc.(slot) <- rpc;
    s.stk_depth.(slot) <- 0

  (* A slot's row holds one lane until the slot first runs expanded, then
     [lanes * n_regs] words from there on: warps that never expand never
     pay for the lanes. Growing keeps lane 0's segment. *)
  let lane_row t s ~slot =
    let row = t.regs.(slot) in
    if Array.length row < s.lanes * t.n_regs then begin
      let grown = Array.make (s.lanes * t.n_regs) 0 in
      Array.blit row 0 grown 0 t.n_regs;
      t.regs.(slot) <- grown;
      grown
    end
    else row

  let simt_reset t ~slot ~mask ~rpc =
    let s = simt_get t in
    let row = lane_row t s ~slot in
    Array.fill row 0 (Array.length row) 0;
    s.collapsed.(slot) <- 0;
    top_level s ~slot ~mask ~rpc;
    row

  let simt_collapse t ~slot ~rpc =
    let s = simt_get t in
    s.collapsed.(slot) <- 1;
    top_level s ~slot ~mask:s.full_mask ~rpc

  let simt_collapsed t ~slot = (simt_get t).collapsed.(slot) = 1

  let simt_expand t ~slot ~rpc =
    let s = simt_get t in
    let row = lane_row t s ~slot in
    for lane = 1 to s.lanes - 1 do
      Array.blit row 0 row (lane * t.n_regs) t.n_regs
    done;
    s.collapsed.(slot) <- 0;
    top_level s ~slot ~mask:s.full_mask ~rpc;
    row

  let simt_active t ~slot = (simt_get t).active.(slot)

  let push s ~slot ~pc ~rpc ~mask =
    let d = s.stk_depth.(slot) in
    let cap = Array.length s.stk_pc.(slot) in
    if d = cap then begin
      let grow a =
        let b = Array.make (2 * cap) 0 in
        Array.blit a 0 b 0 cap;
        b
      in
      s.stk_pc.(slot) <- grow s.stk_pc.(slot);
      s.stk_rpc.(slot) <- grow s.stk_rpc.(slot);
      s.stk_mask.(slot) <- grow s.stk_mask.(slot)
    end;
    s.stk_pc.(slot).(d) <- pc;
    s.stk_rpc.(slot).(d) <- rpc;
    s.stk_mask.(slot).(d) <- mask;
    s.stk_depth.(slot) <- d + 1

  (* Divergent conditional branch: suspend the reconvergence continuation
     (the full active mask resuming at [rpc] in the enclosing scope) and
     the taken arm; the warp continues into the fall-through arm. The
     caller then routes the fall-through pc through {!simt_next} — when the
     branch is a loop exit ([fall_pc = rpc]) that pop makes the taken arm
     current immediately. *)
  let simt_diverge t ~slot ~tgt ~taken ~rpc =
    let s = simt_get t in
    let m = s.active.(slot) in
    push s ~slot ~pc:rpc ~rpc:s.rpc.(slot) ~mask:m;
    push s ~slot ~pc:tgt ~rpc ~mask:taken;
    s.active.(slot) <- m land lnot taken;
    s.rpc.(slot) <- rpc

  (* Route a computed next-pc through the reconvergence stack: reaching the
     current reconvergence point pops the next suspended arm (or the
     continuation, restoring its wider mask and enclosing scope). *)
  let simt_next t ~slot next =
    let s = simt_get t in
    let next = ref next in
    while s.stk_depth.(slot) > 0 && !next = s.rpc.(slot) do
      let d = s.stk_depth.(slot) - 1 in
      s.stk_depth.(slot) <- d;
      s.active.(slot) <- s.stk_mask.(slot).(d);
      s.rpc.(slot) <- s.stk_rpc.(slot).(d);
      next := s.stk_pc.(slot).(d)
    done;
    !next

  (* [Exit] under the current mask: the active lanes terminate and vanish
     from every suspended mask (a lane exits in exactly one arm). Returns
     the pc where the surviving lanes resume, or [None] when the whole
     warp is done. Entries whose mask emptied are discarded; because a
     continuation's mask is a superset of the arms above it, empty masks
     only ever sit at the top of the stack. *)
  let simt_exit t ~slot =
    let s = simt_get t in
    let dying = s.active.(slot) in
    for d = 0 to s.stk_depth.(slot) - 1 do
      s.stk_mask.(slot).(d) <- s.stk_mask.(slot).(d) land lnot dying
    done;
    s.active.(slot) <- 0;
    let rec resume () =
      if s.stk_depth.(slot) = 0 then None
      else begin
        let d = s.stk_depth.(slot) - 1 in
        s.stk_depth.(slot) <- d;
        if s.stk_mask.(slot).(d) = 0 then resume ()
        else begin
          s.active.(slot) <- s.stk_mask.(slot).(d);
          s.rpc.(slot) <- s.stk_rpc.(slot).(d);
          Some (simt_next t ~slot s.stk_pc.(slot).(d))
        end
      end
    in
    resume ()

  (* Pure variants for scheduler peeks (the RFV next-pc probe): what
     {!simt_next} / {!simt_exit} would return, without mutating. *)
  let simt_peek_next t ~slot next =
    let s = simt_get t in
    let next = ref next and rpc = ref s.rpc.(slot) in
    let d = ref (s.stk_depth.(slot) - 1) in
    while !d >= 0 && !next = !rpc do
      next := s.stk_pc.(slot).(!d);
      rpc := s.stk_rpc.(slot).(!d);
      decr d
    done;
    !next

  let simt_peek_exit t ~slot =
    let s = simt_get t in
    let dying = s.active.(slot) in
    let rec scan d =
      if d < 0 then None
      else if s.stk_mask.(slot).(d) land lnot dying = 0 then scan (d - 1)
      else begin
        let next = ref s.stk_pc.(slot).(d) and rpc = ref s.stk_rpc.(slot).(d) in
        let i = ref (d - 1) in
        while !i >= 0 && !next = !rpc do
          next := s.stk_pc.(slot).(!i);
          rpc := s.stk_rpc.(slot).(!i);
          decr i
        done;
        Some !next
      end
    in
    scan (s.stk_depth.(slot) - 1)
end
