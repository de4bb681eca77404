(** Signal-safe file primitives shared by the WAL and the checkpoint
    store.

    [Unix.write] (and friends) can fail with [EINTR] when a signal with
    a handler lands mid-call — guaranteed traffic once a server process
    handles [SIGCHLD] or timers, and already possible under the
    fork+SIGKILL recovery harness.  A plain write loop turns that
    transient condition into a commit or checkpoint failure; every
    helper here retries instead, so a durability-path write only fails
    for real I/O errors. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run the thunk, retrying as long as it raises
    [Unix.Unix_error (EINTR, _, _)].  The thunk must be safe to
    re-invoke after an interrupted system call (true of [read], [write],
    [fsync], [openfile], [waitpid], ...). *)

val write_fully : Unix.file_descr -> string -> unit
(** Write the whole string, looping over partial writes and retrying
    interrupted ones.  Each attempt is a single [write(2)], so an
    interrupted attempt has written nothing and a retry never repeats
    bytes.  Raises the underlying [Unix.Unix_error] for any
    failure other than [EINTR]. *)

val fsync : Unix.file_descr -> unit
(** [Unix.fsync] with [EINTR] retry. *)

val fsync_dir : string -> unit
(** Best-effort directory sync so a freshly created or renamed file
    survives a crash of the whole machine; failures (filesystems that
    refuse fsync on directories) are ignored — the recovery harness
    only models process death, where directory entries already
    persist. *)
