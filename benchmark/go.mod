module hyrec/benchmark

go 1.22

require hyrec v0.0.0

replace hyrec => ../
