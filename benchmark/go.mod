module hpfdsm/benchmark

go 1.24

require hpfdsm v0.0.0

replace hpfdsm => ../
