(* Print the CRC-32C of each named file as eight lowercase hex digits, one
   per line — the format of the checked-in golden report checksum, so a
   shell step can compare the two with
   [test "$(crc32c.exe report.txt)" = "$(cat golden)"]. *)

module Crc32c = Repro_util.Crc32c

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    Printf.printf "%08x\n" (Crc32c.file Sys.argv.(i))
  done
