(** Textual assembly parser — the inverse of the {!Instr.pp} /
    {!Program.pp} format, plus symbolic labels, comments and blank lines.

    Grammar (one instruction per line):

    {v
    // comment, or  # comment
    label:
      mov   r0, %tid
      add   r1, r0, 42
      mad   r2, r1, param[0], r2
      set.lt r3, r1, 100
      sel   r4, r3, r1, r2
      ld.global  r5, [r1+4]
      st.shared  [r0+0], r5
      bra   label
      bra.nz r3, label        // or an absolute index: bra.nz r3, @7
      bar.sync
      regmutex.acquire
      regmutex.release
      exit
    v}

    Numeric targets ([@7]) refer to instruction indices after label lines
    are removed, matching the disassembly {!Program.pp} prints — so
    [parse (Format.asprintf "%a" Program.pp p)] reproduces [p].

    An optional [kernel NAME (N regs)] header line (the first line
    {!Program.pp} prints) declares the register count: every register
    named afterwards must be below [N]. *)

type error = {
  line : int;       (** 1-based line number *)
  message : string;
}

exception Parse_error of error

(** [parse ~name text] assembles a program from its textual form.
    @raise Parse_error on a malformed line, a malformed or repeated
    kernel header, a register at or above the header's count, or an
    absolute branch target outside the program; and, at the line of the
    last instruction (line 1 when there is none), on a program
    {!Program.create} refuses (empty, no [exit], falling through the end)
    or one that uses no register. *)
val parse : name:string -> string -> Program.t

(** [parse_file path] reads and parses a file; the program is named after
    the base name. *)
val parse_file : string -> Program.t

val pp_error : Format.formatter -> error -> unit
