type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy r = { state = r.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 r =
  r.state <- Int64.add r.state golden;
  mix r.state

let split r = { state = bits64 r }

let int r n =
  assert (n > 0);
  let v = Int64.to_int (Int64.shift_right_logical (bits64 r) 2) in
  v mod n

let float r x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 r) 11) in
  x *. (v /. 9007199254740992.0)

let range r lo hi =
  assert (lo <= hi);
  lo +. float r (hi -. lo)

let bool r = Int64.logand (bits64 r) 1L = 1L

let choice r a =
  assert (Array.length a > 0);
  a.(int r (Array.length a))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
