(** RegDem — register demotion to shared memory (Sakdhnagool et al.,
    arXiv:1907.02894).

    Where RegMutex time-shares physical registers through SRP sections,
    RegDem attacks the same occupancy wall purely in the compiler: the
    registers above a chosen [keep] boundary are {e demoted} to a reserved
    per-CTA shared-memory window, each use is preceded by a fill
    ([ld.spill]) into a scratch register and each def is followed by a
    spill store ([st.spill]). The hardware side is then plain static
    allocation of the reduced register count
    ({!Gpu_sim.Policy.Regdem}).

    The demotion set is picked with the same machinery RegMutex uses for
    its base set: the duration/pressure-ranked permutation from
    {!Compaction} moves the coldest registers above the boundary, and a
    sweep over keep-counts evaluates the resulting occupancy exactly as
    the simulator will ({!Gpu_sim.Sm.cta_capacity_for}), charging both
    the reduced register demand and the enlarged shared-memory
    allocation. *)

(** Raised when the transformed program fails its static soundness check
    (register references beyond the reduced allocation, or spill offsets
    outside the window) — a bug in this pass, not a user error. *)
exception Unsound of string

type plan = {
  original : Gpu_isa.Program.t;
  transformed : Gpu_isa.Program.t;
  keep : int;         (** registers kept below the demotion boundary *)
  scratch : int;      (** scratch registers appended for fills/spills *)
  allocated : int;    (** [keep + scratch] — the static register demand *)
  demoted : int;      (** registers spilled to the shared-memory window *)
  wpc : int;          (** warps per CTA the window was laid out for *)
  spill_words : int;  (** per-CTA window size: [demoted * wpc] words *)
  n_spills : int;     (** static [st.spill] count *)
  n_fills : int;      (** static [ld.spill] count *)
}

type candidate = {
  c_keep : int;
  c_scratch : int;
  c_allocated : int;
  c_demoted : int;
  c_spill_words : int;
  c_shmem_bytes : int;   (** enlarged per-CTA shared allocation *)
  c_warps : int;         (** resident warps under this candidate *)
  c_static_spills : int;
  c_static_fills : int;
}

type choice = {
  baseline_warps : int;
  candidates : candidate list;  (** every keep-count swept, descending *)
  best : candidate option;      (** [None] when no candidate beats baseline *)
}

(** User shared-memory words a plain launch of [kernel] would allocate
    ([max 1 (shmem_bytes / 4)]); the spill window sits directly above. *)
val user_words : Gpu_sim.Kernel.t -> int

(** Enlarged per-CTA allocation: user window plus [spill_words]. *)
val shmem_bytes_with_window : Gpu_sim.Kernel.t -> spill_words:int -> int

(** [choose ?widen cfg kernel] sweeps keep-counts and returns the
    occupancy-maximising demotion, if any strictly beats baseline. *)
val choose : ?widen:bool -> Gpu_uarch.Arch_config.t -> Gpu_sim.Kernel.t -> choice

(** {!choose} given [facts], the facts of [kernel]'s program. *)
val choose_facts :
  ?widen:bool -> Gpu_analysis.Facts.t -> Gpu_uarch.Arch_config.t ->
  Gpu_sim.Kernel.t -> choice

(** [transform ?widen ~keep ~wpc facts] permutes the coldest registers of
    [facts]' program above [keep], rewrites every demoted access through
    scratch registers with spill/fill instructions, and retargets
    branches to each expanded group's head.
    @raise Invalid_argument when [keep] is outside [1, n_regs) or [wpc < 1].
    @raise Unsound when the result fails the static soundness check. *)
val transform :
  ?widen:bool -> keep:int -> wpc:int -> Gpu_analysis.Facts.t -> plan

val pp_candidate : Format.formatter -> candidate -> unit
