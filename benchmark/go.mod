module qracn/benchmark

go 1.22

require qracn v0.0.0

replace qracn => ../
