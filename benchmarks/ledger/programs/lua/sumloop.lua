function sumloop(n)
  local total = 0
  for i = 1, n do
    total = total + i * i
  end
  return total
end
print(sumloop(800))
