let init ~filler n f =
  let a = Array.make n filler in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a
