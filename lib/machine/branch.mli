(** Bimodal branch predictor: 2-bit saturating counters (one byte each)
    indexed by a hash of (code id, pc). *)

type stats = { mutable branches : int; mutable mispredicts : int }

type t = private { table : Bytes.t; mask : int; stats : stats }

val create : ?bits:int -> unit -> t

(** Record an executed conditional branch; [true] when predicted correctly. *)
val record : t -> fn:int -> pc:int -> taken:bool -> bool

val mispredict_rate : t -> float
val reset_stats : t -> unit
