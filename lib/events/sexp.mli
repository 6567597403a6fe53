(** Minimal S-expression reader for the scenario file formats.

    The container ships no sexp library, and the topology/experiment
    grammar is flat enough that a ~60-line reader with line-numbered
    errors beats a dependency: atoms are runs of non-delimiter
    characters, [;] comments run to end of line, no quoting. *)

type t = Atom of string | List of t list

exception Parse_error of string

val parse_string : string -> t list
(** All top-level expressions in the string.  Raises {!Parse_error}
    with a line number on malformed input. *)

val load : string -> t list
(** {!parse_string} over a file's contents. *)

val to_string : t -> string

(** {1 Accessors}

    Small helpers the file formats share; all raise {!Parse_error} on
    shape mismatches so loaders report the offending form. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Parse_error} with the formatted message. *)

val atom_exn : t -> string
val int_exn : t -> int
val float_exn : t -> float

val find_field : string -> t list -> t list option
(** [Some rest] for the first item of the form [(name rest...)]. *)

(** {1 Field readers}

    The one reader of [(name value ...)] fields for every format built
    on this grammar: scenario files, batch files, store records, trend
    lines and daemon frames.  A field is found with {!find_field}, and
    a missing field or a wrong number of values raises {!Parse_error}
    naming the field. *)

val field : string -> t list -> t list
(** The values of a field that must be present. *)

val scalar : string -> (t -> 'a) -> t list -> 'a
(** [scalar name conv items] is [conv v] for the required field
    [(name v)]. *)

val scalar_opt : string -> (t -> 'a) -> t list -> 'a option
(** As {!scalar}, but [None] when the field is absent. *)

val values_opt : string -> (t -> 'a) -> t list -> 'a list option
(** [conv] over every value of an optional field that, when present,
    holds at least one value. *)

val f17 : float -> string
(** [%.17g], the rendering under which every persisted float reads
    back bit-identical. *)
