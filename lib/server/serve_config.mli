(** The serve command's backend compatibility matrix: every flag
    combination resolves to a coherent configuration or one actionable
    error. See the implementation header for the full table. *)

type t = {
  backend : [ `Mem | `Disk ];
  mvcc : bool;
  shards : int;
  path : string option;
      (** file-backed store base path ([None] = memory-backed pager) *)
  durable_acks : bool;
      (** the server commits before acking mutations — exactly when the
          backend persists anything *)
}

val validate :
  backend:string ->
  shards:int ->
  mvcc:bool ->
  path:string option ->
  (t, string) result
