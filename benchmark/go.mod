module vbundle/benchmark

go 1.22

require vbundle v0.0.0

replace vbundle => ../
