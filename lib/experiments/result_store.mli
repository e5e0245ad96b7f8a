(** On-disk result store under [<root>/<version-tag>/].

    One marshalled [(key, value)] file per cache key, written atomically
    (tmp + rename). There is no index and no size bound: deleting the
    root directory (conventionally [_results/]) reclaims the space, and
    directories of other version tags (other builds) are never read.

    All operations are serialized by an internal mutex, so the store may
    be touched from any domain. *)

type stats = {
  entries : int;  (** [.run] files in the current version directory *)
  bytes : int;  (** their total size *)
}

(** Enable ([Some dir], conventionally ["_results"]) or disable ([None])
    the store. *)
val set_root : string option -> unit

val root : unit -> string option

(** The layout of the marshalled values; bumped when it changes. *)
val schema_version : int

(** [simulator_tag exe] — the simulator part of {!version_tag}. [exe] is
    the running executable's size and mtime, ["<size>-<mtime>"]: every
    rebuild gets a new tag, and two different binaries never read each
    other's records, even when built from one commit. [None] (the
    executable could not be [stat]ed) gives ["pid<pid>-<now>"], a tag no
    other process produces, so such a process shares no records. *)
val simulator_tag : (int * float) option -> string

(** [v<schema>-<simulator tag>] — the version directory name, computed
    once per process from one [stat] of [Sys.executable_name]. *)
val version_tag : unit -> string

(** [load key] reads the entry back; [None] when disabled, absent, or
    unreadable (a truncated file, a digest collision). Never writes.

    The value is unmarshalled at the caller's type, so a key must name
    one type: the engine's cell keys hold a {!Regmutex.Outcome.t}, and
    every other user starts its keys with its own name (see
    {!Engine.memo}). *)
val load : string -> 'a option

(** [store key v] writes [(key, v)] atomically (tmp + rename). *)
val store : string -> 'a -> unit

(** Counted from the current version directory on disk; zero when the
    store is disabled. *)
val stats : unit -> stats
