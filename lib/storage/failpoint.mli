(** Named fault-injection sites threaded through the storage IO paths
    ([Paged_file], [Paged_store], [Wal]). Sites are registered at
    module load and cost one mutable read per hit when [Off]; the crash
    harness arms them to inject IO errors, short writes, torn writes and
    simulated process death at exact points. See doc/RECOVERY.md for the
    site catalog. *)

type policy =
  | Off
  | Error of { every : int }  (** raise {!Injected} on every [every]-th armed hit *)
  | Short_write of { every : int }
      (** every [every]-th write accepts only a seeded-random prefix *)
  | Torn_write
      (** the next write lands a random prefix of the new bytes, then
          {!Crash}; one-shot *)
  | Torn_at of int
      (** the same tear on the n-th armed write; the writes before it
          proceed *)
  | Crash_after of int  (** raise {!Crash} on the n-th armed hit *)

type action =
  | Proceed
  | Short of int  (** the device accepts only this many bytes; retry the rest *)
  | Torn of int
      (** write this many bytes over the old contents, then call {!crash} *)

exception Crash of string  (** simulated process death at the named site *)

exception Injected of string  (** injected IO error at the named site *)

type site

val site : string -> site
(** Register (or look up) a site by name. Idempotent. *)

val name : site -> string

val set : string -> policy -> unit
(** Arm a registered site. @raise Invalid_argument on unknown names or
    non-positive counts. *)

val set_site : site -> policy -> unit

val seed : int -> unit
(** Reseed the RNG behind short/torn lengths. *)

val hit : site -> unit
(** A non-write site was reached: fires [Error] / [Crash_after]
    (write-shaping policies are inert). *)

val write_action : site -> len:int -> action
(** A write of [len] bytes is about to run: decide its fate. May raise
    {!Injected} or {!Crash}. *)

val crash : site -> 'a
(** Raise {!Crash} for this site and latch {!is_crashed}. Callers use it
    after performing a [Torn] write. *)

val is_crashed : unit -> bool
(** True once any site crashed; the shadow [Paged_file] backend refuses
    writes and fsyncs while set, so surviving domains cannot commit
    post-mortem work. *)

val reset : unit -> unit
(** Disarm every site, clear {!is_crashed}, reseed. Exercised counters
    survive (they span a whole battery). *)

val registered : unit -> string list
(** All site names, sorted. *)

val exercised : string -> int
(** Times the named site's policy actually fired, ever. *)

val unexercised : unit -> string list
(** Registered sites that never fired — the crash battery and CI require
    this to be empty. *)
