(** Open-addressed int -> int hash table for simulator hot paths.

    [Hashtbl]-free replacement used where a lookup sits on a per-access
    path (TLB page index, MSHR fill map, heap side tables, profiled-load
    counters): linear probing over a flat power-of-two array, and absent
    keys answer a caller-supplied default so lookups never allocate an
    [option]. Any [int] is a valid key (the two sentinel values used
    internally are handled out of band). Iteration order is unspecified but
    deterministic for a given insertion/removal history. *)

type t

(** [create ?size ()] makes an empty table with capacity for at least
    [size] bindings before the first rehash. *)
val create : ?size:int -> unit -> t

(** [find t k default] is the value bound to [k], or [default]. Never
    allocates. *)
val find : t -> int -> int -> int

val mem : t -> int -> bool

(** [set t k v] binds [k] to [v], replacing any previous binding. *)
val set : t -> int -> int -> unit

(** [incr t k d] adds [d] to the value bound to [k] (an unbound key counts
    as 0). One probe when [k] is bound; never allocates unless it grows
    the table. *)
val incr : t -> int -> int -> unit

(** [remove t k] drops the binding for [k] (no-op when absent). *)
val remove : t -> int -> unit

(** Drop all bindings, keeping the current capacity. *)
val clear : t -> unit

(** An independent copy (used to snapshot per-site counters). *)
val copy : t -> t

val length : t -> int
val iter : (int -> int -> unit) -> t -> unit
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
