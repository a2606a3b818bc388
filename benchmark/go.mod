module github.com/interdc/postcard/benchmark

go 1.22

require github.com/interdc/postcard v0.0.0

replace github.com/interdc/postcard => ../
