(** On-disk result store under [<root>/<version-tag>/].

    One marshalled [(key, value)] file per cache key, written atomically
    (tmp + rename). There is no index and no size bound: deleting the
    root directory (conventionally [_results/]) reclaims the space, and
    directories of other version tags are never read.

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

(** [simulator_tag ~describe ~exe] — the simulator part of
    {!version_tag}. [describe] is the [git describe --always --dirty]
    output (["unversioned"] without git); [exe] is the running
    executable's size and mtime, when it could be read. A clean build is
    named by [describe] alone. Dirty and unversioned builds all share one
    describe string, so theirs is followed by the executable's size and
    mtime: two different builds never read each other's records. *)
val simulator_tag : describe:string -> exe:(int * float) option -> string

(** [v<schema>-<simulator tag>] — the version directory name. *)
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
