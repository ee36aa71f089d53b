module skyquery/benchmark

go 1.22

require skyquery v0.0.0

replace skyquery => ../
