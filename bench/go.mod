module rnb/bench

go 1.22

require rnb v0.0.0

replace rnb => ../
