(** Scenario serialization.

    Saves and loads complete scenarios (topology + policy configuration
    + label/seed) as s-expressions, so that an experiment setup can be
    shared, versioned and re-run byte-identically. Round-tripping is
    exact: [load (save s)] yields a scenario whose graph and policies
    behave identically to [s]. *)

val save : Scenario.t -> string
(** Pretty-printed document suitable for a file. *)

val load : string -> (Scenario.t, string) result

val save_file : Scenario.t -> path:string -> (unit, string) result
(** [save] to [path]; an unwritable path is an [Error] naming it. *)

val load_file : path:string -> (Scenario.t, string) result
