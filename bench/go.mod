module mxq/bench

go 1.24

require mxq v0.0.0

replace mxq => ../
