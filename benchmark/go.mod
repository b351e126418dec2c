module bg3/benchmark

go 1.24

require bg3 v0.0.0

replace bg3 => ../
