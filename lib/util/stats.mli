(** Summary statistics over float samples.

    Benchmarks and experiments report distributions (convergence rounds,
    message counts, path stretch); this module computes the summaries
    printed in the result tables. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

val summary : float list -> summary
(** Summary of a sample. All fields are 0 for the empty sample. *)

val mean : float list -> float

val stddev : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation
    between order statistics. 0 for the empty sample. *)

val pp_summary : Format.formatter -> summary -> unit

type histogram = { bucket_width : float; buckets : (float * int) list }
(** Buckets are (lower bound, count), sorted ascending; empty buckets
    between occupied ones are included. *)

val histogram : bucket_width:float -> float list -> histogram

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or [0.] when [b = 0.]; used for
    "factor-of" columns in experiment tables. *)
