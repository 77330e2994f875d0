(** Value-level semantics of MiniJS operators and builtins, shared verbatim
    by the interpreter tier and the optimized tier's runtime stubs — the
    two tiers agree by construction. *)

exception Guest_error of string

val is_numeric : Tce_vm.Heap.t -> Tce_vm.Value.t -> bool

(** @raise Guest_error on non-numbers. *)
val to_number : Tce_vm.Heap.t -> Tce_vm.Value.t -> float

(** JS ToInt32 (shared definition with the machine's TruncFI). *)
val to_int32 : Tce_vm.Heap.t -> Tce_vm.Value.t -> int

val to_display : Tce_vm.Heap.t -> Tce_vm.Value.t -> string

(** Feedback kind observed for one binop execution. *)
val observe :
  Tce_vm.Heap.t -> Tce_vm.Value.t -> Tce_vm.Value.t -> bool ->
  Tce_jit.Feedback.binop_fb

(** Numbers numerically, strings by content, references by identity; mixed
    kinds unequal (strict-flavored; see DESIGN.md). *)
val values_equal : Tce_vm.Heap.t -> Tce_vm.Value.t -> Tce_vm.Value.t -> bool

(** Evaluate a binary operator, writing the feedback observation into the
    caller-owned cell (allocates only the result: a heap number or an
    interned string).
    @raise Guest_error on type errors (and on [LAnd]/[LOr], which compile to
    control flow). *)
val eval_binop_cell :
  Tce_vm.Heap.t -> Tce_minijs.Ast.binop -> Tce_vm.Value.t -> Tce_vm.Value.t ->
  Tce_jit.Feedback.binop_fb ref -> Tce_vm.Value.t

val eval_unop :
  Tce_vm.Heap.t -> Tce_minijs.Ast.unop -> Tce_vm.Value.t -> Tce_vm.Value.t

type io = {
  out : Buffer.t;
  prng : Tce_support.Prng.t;
  trace : Tce_obs.Trace.t;  (** observability sink (heap-growth events) *)
}

val make_io : ?seed:int -> ?trace:Tce_obs.Trace.t -> unit -> io

(** [arg src argr i] is argument [i] of a call view: [src.(argr.(i))]. *)
val arg : Tce_vm.Value.t array -> int array -> int -> Tce_vm.Value.t

(** [builtin_apply h io b src argr] applies a builtin to the arguments
    [src.(argr.(i))] (a borrowed view, read before it returns). (The
    engine intercepts [push] so its element store fires Class Cache events;
    this function is the plain semantics.) *)
val builtin_apply :
  Tce_vm.Heap.t -> io -> Tce_jit.Builtins.t -> Tce_vm.Value.t array ->
  int array -> Tce_vm.Value.t

(** [store_float_result h v cell] writes the numeric payload of a stub
    result (0 for non-numbers) to [cell.(0)], for the float-register result
    path. Writing to a cell keeps the [float] unboxed. *)
val store_float_result : Tce_vm.Heap.t -> Tce_vm.Value.t -> float array -> unit
