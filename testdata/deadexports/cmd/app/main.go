package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Sorted([]string{"ccc", "a", "bb"})) }
