module pbg/benchmark

go 1.22

require pbg v0.0.0

replace pbg => ../
