module github.com/totem-rrp/totem/benchmark

go 1.22

require github.com/totem-rrp/totem v0.0.0

replace github.com/totem-rrp/totem => ../
