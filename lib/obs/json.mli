(** A minimal JSON value, printer and parser — just enough to round-trip
    the benchmark report and run-ledger schemas without a JSON dependency.
    Lives in [Obs] so both the ledger and the benchmark layer (which
    depends on [Obs]) share one codec. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string

val add_string : Buffer.t -> string -> unit
(** Append a string as a quoted, escaped JSON string literal — for
    writers that render JSON straight into a buffer. *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input. *)

val member : string -> t -> t option

val get_str : string -> t option -> string
val get_num : string -> t option -> float
val get_list : string -> t option -> t list
(** Raise {!Parse_error} when absent or of the wrong type; [name] labels
    the error. *)

(** Typed field access for request validation. [f name j] reads member
    [name] of object [j] ([num_item] and [int_item]: an element of the
    array [name]); [num] must be finite, [int] integral, [list] non-empty;
    [opt] is [None] and [flag] [false] for an absent or [null] member.
    A well-formed document of the wrong shape raises {!Invalid} with a
    client-facing message (["missing field \"nx\""], ["field \"cores\"
    must be an integer"]), not {!Parse_error}. *)
module Field : sig
  exception Invalid of string

  val fail : ('a, unit, string, 'b) format4 -> 'a
  val obj : string -> t -> t
  val num : string -> t -> float
  val int : string -> t -> int
  val str : string -> t -> string
  val opt : (string -> t -> 'a) -> string -> t -> 'a option
  val flag : string -> t -> bool
  val list : string -> t -> t list
  val num_item : string -> t -> float
  val int_item : string -> t -> int
end
