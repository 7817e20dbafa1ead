module mvdb/benchmark

go 1.22

require mvdb v0.0.0

replace mvdb => ../
