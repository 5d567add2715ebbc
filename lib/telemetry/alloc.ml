(* OCaml 5 adds a domain's direct major-heap allocations to the
   counters only when a collection flushes them: a full major before
   and a minor after make the reading exact. *)
let words f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  f ();
  Gc.minor ();
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  m1 -. m0
  +. (s1.Gc.major_words -. s1.Gc.promoted_words)
  -. (s0.Gc.major_words -. s0.Gc.promoted_words)

let words_per ~ops f = words f /. float_of_int (max 1 ops)

let minor_collections f =
  Gc.full_major ();
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  (Gc.quick_stat ()).Gc.minor_collections - c0

let promoted_words f =
  Gc.full_major ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  f ();
  (Gc.quick_stat ()).Gc.promoted_words -. p0

let sample ?(registry = Registry.default) () =
  let s = Gc.quick_stat () in
  let set name v = Registry.set (Registry.gauge registry name) v in
  set "gc.minor_words" (Gc.minor_words ());
  set "gc.major_words" s.Gc.major_words;
  set "gc.promoted_words" s.Gc.promoted_words;
  set "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  set "gc.major_collections" (float_of_int s.Gc.major_collections);
  set "gc.compactions" (float_of_int s.Gc.compactions);
  set "gc.heap_words" (float_of_int s.Gc.heap_words);
  set "gc.top_heap_words" (float_of_int s.Gc.top_heap_words)
