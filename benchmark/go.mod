module seedex/benchmark

go 1.22

require seedex v0.0.0

replace seedex => ../
