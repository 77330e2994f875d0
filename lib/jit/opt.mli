(** The optimizing compiler ("Crankshaft" stand-in, paper §3.2/§4.3):
    bytecode + inline-cache feedback
    -> forward type/provenance/constant fixpoint over the bytecode's basic
       blocks
    -> LIR with explicit, categorized check instructions.

    The dataflow keeps one input state (type, object-load provenance and
    known constant per register) per basic-block leader: pc 0, every jump
    target and the pc after each jump or return. A worklist over blocks
    replays each block through the transfer function on one running state
    and joins the result into its successors' leader states. Register
    representations, loop hoisting and code generation then walk the pcs in
    order, replaying each block from its leader state; pcs the fixpoint
    never reaches see the initial all-[Null] state. The transfer is
    monotone, so the fixpoint (and the emitted code) does not depend on the
    visit order.

    With the mechanism enabled, the Class List is consulted: loads from
    profiled-monomorphic slots produce *typed* values, so downstream
    Check Map / Check SMI / Check Non-SMI operations and untag guards are
    never emitted (§4.3.1–§4.3.3), and the code registers speculation
    dependencies to be installed in the slots' FunctionLists. Stores to
    still-valid slots become movClassID + movStoreClassCache
    (movClassIDArray + movStoreClassCacheArray for elements, hoisted out of
    call-free loops), except stores the type lattice proves safe. *)

exception Bailout of string

(** The type lattice of the fixpoint. *)
type ty =
  | Any
  | Smi
  | Num  (** SMI or heap number *)
  | Cls of int  (** tagged pointer of known hidden class *)
  | Bool
  | Null
  | Str

type env = {
  prog : Bytecode.program;
  heap : Tce_vm.Heap.t;
  cl : Tce_core.Class_list.t;
  mechanism : bool;
  hoisting : bool;
  checked_load : bool;  (** Checked Load baseline (paper §2) *)
  fn : Bytecode.func;
  opt_id : int;
  code_addr : int;
  globals_base : int;
  attr : Tce_attr.Ledger.t;
      (** attribution ledger ({!Tce_attr.Ledger.null} = disabled): one
          removed/kept-with-cause entry per check site per compilation *)
}

(** Result type of a speculative load from a Class List slot; [None] keeps
    the checks. *)
val spec_load_ty : env -> classid:int -> line:int -> pos:int -> ty option

(** Built-in type-specific slots (string/array lengths) need no profile. *)
val invariant_slot_ty : env -> classid:int -> slot:int -> ty option

(** Optimize [env.fn].
    @raise Bailout when the function cannot be usefully compiled. *)
val compile : env -> Lir.func
