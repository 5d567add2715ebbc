(** The one benchmark row shape, and the regression gate over it.

    Every committed [BENCH_*.json] is a document
    [{"benchmark": id, "results": [row, ...]}]. A row is
    [{"layer", "kernel", "config", "exact", "band", "cores"}]:
    - [layer] is a rung of the benchmark ladder: [kernel], [search],
      [engine], [converge] or [serve];
    - [kernel] names the code measured;
    - [config] is the object that reproduces the row;
    - [exact] holds the deterministic numbers: the producer puts a
      field there only if two runs of one build agree on it bit for
      bit;
    - [band] holds the time, allocation and heap figures;
    - [cores] is how many cores one measured operation ran on.

    The producer that builds a row is the only place that decides
    which numbers are deterministic. The baseline row is therefore the
    spec: every [exact] field of the baseline must be written the same
    in the current row, and every [band] field must lie within the
    timing tolerance. Rows are matched on (layer, kernel, config).
    Other top-level members of a document are context the gate does
    not read. *)

type row = {
  layer : string;
  kernel : string;
  config : (string * Pr_util.Json.t) list;
  exact : (string * Pr_util.Json.t) list;  (** each an [Int] or [Float] *)
  band : (string * Pr_util.Json.t) list;  (** each an [Int] or [Float] *)
  cores : int;
}

val document_json :
  benchmark:string -> ?context:(string * Pr_util.Json.t) list -> row list -> Pr_util.Json.t
(** [{"benchmark": benchmark, "results": rows}], followed by the
    [context] members. *)

val document_of_json : Pr_util.Json.t -> (string * row list, string) result
(** The benchmark id and its rows. An error names the first thing
    wrong: a missing id, an empty or missing results list, a row whose
    layer is not a rung, whose [exact]/[band] value is not a finite
    number, whose [cores] is not a positive integer, which carries a
    member outside the row shape, names one field twice, or shares its
    (layer, kernel, config) with an earlier row. Never raises. *)

val read : string -> (string * row list, string) result
(** {!document_of_json} of a file's contents; an unreadable file is an
    error too. *)

val same_key : row -> row -> bool
(** Same layer, kernel and config (numbers compared by value, members
    in any order). *)

val describe : row -> string
(** One line naming a row by its key, for messages. *)

val default_tolerance : float
(** The band used when none is given: [9.0], i.e. within a factor of
    ten either way. Generous because baselines cross machines; it
    still catches order-of-magnitude regressions. *)

type outcome = {
  field : string;
  exact : bool;  (** an [exact] field of the baseline, else a [band] one *)
  baseline : Pr_util.Json.t;
  current : Pr_util.Json.t option;  (** [None] when the current row lacks it *)
  ok : bool;
}

val compare_row : tolerance:float -> baseline:row -> current:row -> outcome list
(** One outcome per [exact] and [band] field of [baseline]. A field is
    looked up in either section of [current]. An [exact] field passes
    when both values render to the same JSON text; a [band] field when
    each value is within [1 + tolerance] times the other, plus one unit
    of slack so near-zero figures do not trip on noise. *)

val failures : outcome list -> outcome list

val report_failures : tolerance:float -> baseline:row -> current:row -> int
(** How many fields of [current] fail {!compare_row} against
    [baseline]. Each failed field is written to stderr, under a line
    that names the baseline row ({!describe}). *)
